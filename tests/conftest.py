"""Shared fixtures: random corpora, built indexes, and the planted-answer suite."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from phraseindex.corpus import CorpusStore, Document, Paragraph
from phraseindex.dense import (
    EncoderConfig,
    PrecomputedEncoder,
    ToyEncoder,
    question_dense,
    write_embedding_file,
)
from phraseindex.index import BuildConfig, PhraseIndex, build_index, load_index
from phraseindex.search import QueryVector, SearchConfig, _para_sparse

SMALL_CONFIG = EncoderConfig(dim=16, boundary_dim=6, coherency_dim=2)


def make_random_corpus(
    rng: np.random.Generator,
    n_docs: int,
    tokens_per_para: tuple[int, int] = (8, 25),
    paras_per_doc: tuple[int, int] = (1, 2),
    vocab: int = 60,
) -> CorpusStore:
    words = [f"w{k:03d}" for k in range(vocab)]
    docs = []
    for d in range(n_docs):
        paras = []
        for _ in range(int(rng.integers(paras_per_doc[0], paras_per_doc[1] + 1))):
            n = int(rng.integers(tokens_per_para[0], tokens_per_para[1] + 1))
            paras.append(Paragraph.from_text(" ".join(rng.choice(words, size=n))))
        docs.append(Document(id=f"doc{d:03d}", title=f"Title {d}", paragraphs=paras))
    return CorpusStore(docs)


def build_small_index(
    corpus: CorpusStore,
    out_dir: Path,
    max_span: int = 4,
    seed: int = 0,
    ivf_clusters: int = 8,
    encoder: ToyEncoder | None = None,
    filter_model=None,
) -> PhraseIndex:
    encoder = encoder or ToyEncoder(SMALL_CONFIG, seed=seed)
    config = BuildConfig(max_span=max_span, seed=seed, ivf_clusters=ivf_clusters)
    build_index(corpus, encoder, filter_model, out_dir, config)
    return load_index(out_dir)


def write_corpus_jsonl(corpus: CorpusStore, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        corpus.write_jsonl(fh)
    return path


# ---------------------------------------------------------------------------
# Planted-answer suite: 50 docs, 100 questions with engineered query vectors.
# ---------------------------------------------------------------------------

PLANTED_CONFIG = EncoderConfig(dim=32, boundary_dim=12, coherency_dim=4)
N_PLANTED_DOCS = 50
N_PLANTED_QUESTIONS = 100
N_DECOY_HOSTS = 10  # ordinals 0..9 host decoys, 10..49 host gold answers
PLANTED_MAX_SPAN = 4
PLANTED_HYBRID = SearchConfig(
    strategy="hybrid", top_k=5, sparse_top_docs=5, dense_top_starts=100, nprobe=8
)


@dataclass
class PlantedQuestion:
    qid: str
    query: QueryVector
    gold_answers: list[str]
    gold_doc_ordinal: int
    has_decoy: bool
    question_text: str


@dataclass
class PlantedSuite:
    index: PhraseIndex
    questions: list[PlantedQuestion]


def _decoy_for(q: int) -> int | None:
    """Questions with q % 10 < 3 get a lexically overlapping decoy document."""
    return q % 10 if q % 10 < 3 else None


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def build_planted_suite(base_dir: Path) -> PlantedSuite:
    rng = np.random.default_rng(2024)
    filler = [f"f{k:03d}" for k in range(200)]

    def gold_window(q: int) -> list[str]:
        return [f"c{q}l1", f"c{q}l2", f"ans{q}x", f"ans{q}y", f"c{q}r1", f"c{q}r2"]

    def decoy_window(q: int) -> list[str]:
        # Shares the answer words with the question (lexical overlap) but puts
        # the planted signature on a wrong surface form.
        return [f"ans{q}x", f"ans{q}y", f"wrong{q}a", f"wrong{q}b", f"c{q}r1", f"c{q}r2"]

    gold_doc = {q: 10 + q % (N_PLANTED_DOCS - N_DECOY_HOSTS) for q in range(N_PLANTED_QUESTIONS)}
    doc_words: dict[int, list[str]] = {}
    for d in range(N_PLANTED_DOCS):
        doc_words[d] = list(rng.choice(filler, size=6))
    for d in range(N_DECOY_HOSTS, N_PLANTED_DOCS):
        doc_words[d] = [f"topic{d}", f"topic{d}", f"topic{d}"] + doc_words[d]
    for q in range(N_PLANTED_QUESTIONS):
        doc_words[gold_doc[q]] = doc_words[gold_doc[q]] + gold_window(q)
        decoy = _decoy_for(q)
        if decoy is not None:
            doc_words[decoy] = doc_words[decoy] + decoy_window(q)

    docs = []
    for d in range(N_PLANTED_DOCS):
        docs.append(
            Document(
                id=f"doc{d:03d}",
                title=f"Topic {d}",
                paragraphs=[Paragraph.from_text(" ".join(doc_words[d]))],
            )
        )
    corpus = CorpusStore(docs)

    # Document encodings come from the precomputed-embedding import path:
    # background rows are small noise, and each question's gold answer pair
    # carries a strong unit-direction signature on its start/end slices. Decoy
    # documents replicate the exact same signature rows, so their stored
    # phrase vectors are byte-identical to the gold's (an engineered dense
    # tie that only the sparse score can break).
    b = PLANTED_CONFIG.boundary_dim
    sig_start = {q: _unit(rng, b) for q in range(N_PLANTED_QUESTIONS)}
    sig_end = {q: _unit(rng, b) for q in range(N_PLANTED_QUESTIONS)}
    doc_records: dict[str, np.ndarray] = {}
    for d in range(N_PLANTED_DOCS):
        words = doc_words[d]
        rows = 0.05 * rng.normal(size=(len(words), PLANTED_CONFIG.dim))
        doc_records[f"doc{d:03d}/0"] = rows
    for q in range(N_PLANTED_QUESTIONS):
        anchors = [(gold_doc[q], f"ans{q}x")]
        if _decoy_for(q) is not None:
            anchors.append((_decoy_for(q), f"wrong{q}a"))
        for d, anchor in anchors:
            i = doc_words[d].index(anchor)
            rows = doc_records[f"doc{d:03d}/0"]
            rows[i, :b] = 5.0 * sig_start[q]
            rows[i + 1, b : 2 * b] = 5.0 * sig_end[q]

    doc_embed_path = base_dir / "planted_docs.bin"
    write_embedding_file(doc_embed_path, doc_records, PLANTED_CONFIG.dim)
    encoder = PrecomputedEncoder(doc_embed_path, PLANTED_CONFIG)
    config = BuildConfig(max_span=PLANTED_MAX_SPAN, seed=5, ivf_clusters=64)
    build_index(corpus, encoder, None, base_dir / "planted_index", config)
    index = load_index(base_dir / "planted_index")

    # Query marker rows are aligned with the gold span's stored (dequantized)
    # vectors; the coherency slot is left at zero so the dense tie between
    # gold and decoy is exact.
    marker_rows: dict[str, np.ndarray] = {}
    texts: dict[str, str] = {}
    for q in range(N_PLANTED_QUESTIONS):
        g = gold_doc[q]
        surfaces = corpus.doc_by_ordinal(g).paragraphs[0].surfaces()
        i = surfaces.index(f"ans{q}x")
        j = i + 1
        para_row = index.para_row(g, 0)
        rec = int(index.para_table[para_row]["rec_begin"]) + i  # keep-all: record per token
        assert int(index.rec_tok[rec]) == i
        a_hat = index.dequant_start_rows(np.array([rec]))[0]
        end_row = int(index.rec_end_row[rec]) + j - i  # keep-all: phrase (rec, t) ends at i + t
        assert j - i < int(index.rec_n_ends[rec]) and int(index.end_tok[end_row]) == j
        b_hat = index.dequant_end_rows(np.array([end_row]))[0]

        row = np.zeros(PLANTED_CONFIG.dim)
        row[:b] = 12.0 * a_hat
        row[b : 2 * b] = 12.0 * b_hat
        marker_rows[f"q{q:03d}"] = row[None, :]
        texts[f"q{q:03d}"] = f"topic{g} topic{g} ans{q}x ans{q}y"

    # Route the engineered embeddings through the precomputed-import path.
    embed_path = base_dir / "planted_questions.bin"
    write_embedding_file(embed_path, marker_rows, PLANTED_CONFIG.dim)
    q_encoder = PrecomputedEncoder(embed_path, PLANTED_CONFIG)

    questions = []
    for q in range(N_PLANTED_QUESTIONS):
        qid = f"q{q:03d}"
        dense = question_dense(q_encoder.encode_question([], key=qid))
        sparse_vec = index.tfidf.embed(texts[qid].split())
        decoy = _decoy_for(q)
        if decoy is not None:
            # The question's sparse vector must strictly prefer the gold doc.
            rows = np.array([index.para_row(gold_doc[q], 0), index.para_row(decoy, 0)])
            gold, decoy_score = _para_sparse(index, sparse_vec)[rows]
            margin = gold - decoy_score
            assert margin > 1e-6, f"question {q} lacks a sparse margin"
        questions.append(
            PlantedQuestion(
                qid=qid,
                query=QueryVector(dense=dense, sparse=sparse_vec),
                gold_answers=[f"ans{q}x ans{q}y"],
                gold_doc_ordinal=gold_doc[q],
                has_decoy=decoy is not None,
                question_text=texts[qid],
            )
        )
    return PlantedSuite(index=index, questions=questions)


@pytest.fixture(scope="session")
def planted_suite(tmp_path_factory) -> PlantedSuite:
    return build_planted_suite(tmp_path_factory.mktemp("planted"))
