"""Seeded synthetic inputs: a corpus JSONL and a question stream per workload.

Everything is drawn from ``numpy.random.default_rng`` seeded with the run seed
and a fixed per-stream tag, so one seed always gives the same bytes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCAB_SIZE = 5000
ZIPF_S = 1.1
QUESTION_WORDS = 6
REPLACED_WORDS = 2
WINDOW_SHARE = 0.8  # the rest are random Zipf words with no planted target
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    paras: int
    tokens: int  # words per paragraph; no punctuation, so words == tokens


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _vocabulary(rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        n = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[k] for k in rng.integers(len(_SYLLABLES), size=n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return w / w.sum()


def make_corpus(spec: CorpusSpec, seed: int, tag: str) -> list[dict]:
    """Documents as the CLI reads them: {"id", "title", "paragraphs"}."""
    rng = _rng(seed, "corpus/" + tag)
    vocab = np.array(_vocabulary(_rng(seed, "vocab")))
    words = rng.choice(vocab, size=(spec.docs, spec.paras, spec.tokens), p=_zipf_weights(VOCAB_SIZE))
    return [
        {
            "id": f"d{d:05d}",
            "title": f"Document {d}",
            "paragraphs": [" ".join(words[d, p]) for p in range(spec.paras)],
        }
        for d in range(spec.docs)
    ]


def corpus_jsonl(docs: list[dict]) -> str:
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)


def _question(rng: np.random.Generator, docs: list[dict], vocab: np.ndarray, p: np.ndarray) -> str:
    if rng.random() >= WINDOW_SHARE:
        return " ".join(rng.choice(vocab, size=QUESTION_WORDS, p=p))
    doc = docs[int(rng.integers(len(docs)))]
    para = doc["paragraphs"][int(rng.integers(len(doc["paragraphs"])))].split()
    lo = int(rng.integers(len(para) - QUESTION_WORDS + 1))
    window = para[lo : lo + QUESTION_WORDS]
    for pos in rng.choice(QUESTION_WORDS, size=REPLACED_WORDS, replace=False):
        window[int(pos)] = str(rng.choice(vocab, p=p))
    return " ".join(window)


def unique_questions(docs: list[dict], n: int, seed: int, tag: str) -> list[str]:
    """n distinct questions, in stream order."""
    rng = _rng(seed, "questions/" + tag)
    vocab = np.array(_vocabulary(_rng(seed, "vocab")))
    p = _zipf_weights(VOCAB_SIZE)
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        q = _question(rng, docs, vocab, p)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def zipf_stream(docs: list[dict], n: int, pool: int, seed: int, tag: str) -> list[str]:
    """n questions drawn with Zipf popularity from a fixed pool of distinct ones."""
    questions = unique_questions(docs, pool, seed, tag)
    rng = _rng(seed, "popularity/" + tag)
    picks = rng.choice(pool, size=n, p=_zipf_weights(pool))
    return [questions[int(k)] for k in picks]


def repeat_share(stream: list[str]) -> float:
    """Share of requests whose question already appeared earlier in the stream."""
    return 1.0 - len(set(stream)) / len(stream) if stream else 0.0


def write_inputs(workdir: Path, docs: list[dict], questions: list[str]) -> tuple[Path, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_path = workdir / "corpus.jsonl"
    questions_path = workdir / "questions.jsonl"
    corpus_path.write_text(corpus_jsonl(docs), encoding="utf-8")
    questions_path.write_text(
        "".join(json.dumps({"question": q}) + "\n" for q in questions), encoding="utf-8"
    )
    return corpus_path, questions_path
