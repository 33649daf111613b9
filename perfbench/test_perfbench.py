"""Tests of the benchmark itself: seeded inputs, the response checker, the load
generator's timeout. Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from check import Corpus  # noqa: E402
from load import HOST, run_load  # noqa: E402

SPEC = gen.CorpusSpec(docs=4, paras=2, tokens=30)


def _input_bytes(seed: int, workdir: Path) -> tuple[bytes, bytes]:
    docs = gen.make_corpus(SPEC, seed, "tiny")
    stream = gen.unique_questions(docs, 20, seed, "w") + gen.zipf_stream(docs, 20, 8, seed, "z")
    corpus_path, questions_path = gen.write_inputs(workdir, docs, stream)
    return corpus_path.read_bytes(), questions_path.read_bytes()


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _input_bytes(3, tmp_path / "a") == _input_bytes(3, tmp_path / "b")


def test_different_seed_gives_different_bytes(tmp_path):
    first, second = _input_bytes(3, tmp_path / "a"), _input_bytes(4, tmp_path / "b")
    assert first[0] != second[0] and first[1] != second[1]


def test_questions_are_unique_and_repeat_share_counts_repeats():
    docs = gen.make_corpus(SPEC, 1, "tiny")
    assert len(set(gen.unique_questions(docs, 50, 1, "w"))) == 50
    assert gen.repeat_share(["a", "b", "a", "a"]) == 0.5


def _valid_response(docs: list[dict]) -> dict:
    doc = docs[1]
    words = doc["paragraphs"][0].split()
    results = []
    for k in range(10):
        dense, sparse = 5.0 - k, 0.25 * k
        results.append({
            "text": " ".join(words[k : k + 2]), "doc_id": doc["id"], "doc_title": doc["title"],
            "para_idx": 0, "start_token": k, "end_token": k + 1,
            "score": dense + 0.05 * sparse, "dense_score": dense, "sparse_score": sparse,
            "strategy": "exact",
        })
    return {"results": results, "timings": {"total_ms": 1.0}, "docs_visited": 1}


def test_checker_accepts_a_valid_response():
    docs = gen.make_corpus(SPEC, 1, "tiny")
    assert Corpus(docs, 20, 0.05).response_problem(200, _valid_response(docs), 10) == ""


def test_checker_flags_corrupted_responses():
    docs = gen.make_corpus(SPEC, 1, "tiny")
    corpus = Corpus(docs, 20, 0.05)

    def corrupted(field, value, at=3):
        response = _valid_response(docs)
        response["results"][at][field] = value
        return response

    swapped = _valid_response(docs)
    swapped["results"][2], swapped["results"][3] = swapped["results"][3], swapped["results"][2]
    short = _valid_response(docs)
    short["results"].pop()
    cases = [
        (200, corrupted("text", "not the span")),
        (200, corrupted("score", 99.0)),
        (200, corrupted("sparse_score", 0.1)),
        (200, corrupted("doc_id", "nope")),
        (200, corrupted("end_token", 40)),
        (200, corrupted("end_token", 2, at=5)),
        (200, swapped),
        (200, short),
        (200, {"error": "x"}),
        (200, None),
        (500, _valid_response(docs)),
    ]
    for status, response in cases:
        assert corpus.response_problem(status, response, 10), (status, response)


def test_load_generator_counts_a_timeout_as_a_failure():
    with socket.socket() as listener:  # accepts connections, never answers
        listener.bind((HOST, 0))
        listener.listen(4)
        samples = run_load(listener.getsockname()[1], ["q"], "sfs", 10, seconds=1.0, timeout=0.2)
    assert [s.error for s in samples] == ["timeout"]
