"""Independent reference implementations used to check the real code paths.

These deliberately avoid the library's index readers and search functions:
dense vectors are parsed straight out of the binary sections, sparse vectors
are recomputed from the corpus, and scoring/ranking is explicit loops.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from phraseindex.corpus import CorpusStore
from phraseindex.sparse import combine_doc_para, fit_tfidf, ngram_bin


def brute_force_tfidf_weights(texts: list[str], target: str) -> dict[int, float]:
    """Dictionary-based tf-idf over whitespace unigrams and bigrams."""

    def grams(text: str) -> list[str]:
        words = text.lower().split()
        return words + [f"{a} {b}" for a, b in zip(words, words[1:])]

    n = len(texts)
    df: dict[int, int] = {}
    for text in texts:
        for b in {ngram_bin(g) for g in grams(text)}:
            df[b] = df.get(b, 0) + 1
    tf: dict[int, int] = {}
    for g in grams(target):
        b = ngram_bin(g)
        tf[b] = tf.get(b, 0) + 1
    weights = {}
    for b, count in tf.items():
        idf = max(0.0, math.log((n - df.get(b, 0) + 0.5) / (df.get(b, 0) + 0.5)))
        if count * idf != 0.0:
            weights[b] = count * idf
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {b: w / norm for b, w in weights.items()} if norm else {}


def _read_widths(path: Path) -> tuple[int, int]:
    """boundary_dim and coherency_dim, from encoder.bin's header: after the
    12-byte section header, the encoder kind, dim, boundary_dim and
    coherency_dim as u32."""
    raw = path.read_bytes()
    assert raw[:4] == b"PIDX"
    _, _, boundary_dim, coherency_dim = struct.unpack("<IIII", raw[12:28])
    return boundary_dim, coherency_dim


def _read_code_section(path: Path, dim: int) -> np.ndarray:
    """The int8 code rows after the 12-byte header, as many as the file holds."""
    raw = path.read_bytes()
    assert raw[:4] == b"PIDX"
    return np.frombuffer(raw[12:], dtype=np.int8).reshape(-1, dim)


def _read_quant_section(
    path: Path, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    assert raw[:4] == b"PIDX" and len(raw) == 12 + 4 * dim * 8
    arrays = np.frombuffer(raw[12:], dtype="<f8").reshape(4, dim)
    return tuple(a.copy() for a in arrays)  # start_min, start_scale, end_min, end_scale


def _read_coherency_section(path: Path, width: int, n_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The coherency head rows (n_heads, one per start row) and tail rows (one
    per end row), as float32 matrices, after the header and the coherency
    range's two f32."""
    raw = path.read_bytes()
    assert raw[:4] == b"PIDX"
    body = np.frombuffer(raw[20:], dtype="<f4").reshape(-1, width)
    return body[:n_heads], body[n_heads:]


def enumerate_all_scores(
    index_dir: Path,
    corpus: CorpusStore,
    max_span: int,
    q_start: np.ndarray,
    q_end: np.ndarray,
    q_coherency: float,
    q_sparse,
    sparse_scale: float,
) -> list[tuple[float, int, int, int, int]]:
    """Score every span of a keep-all build by explicit loops over raw bytes.

    Returns (score, doc_ordinal, para_idx, i, j) tuples in ranked order with
    the (doc, para, i, j) tie-break.
    """
    dim, width = _read_widths(index_dir / "encoder.bin")
    start_codes = _read_code_section(index_dir / "starts.bin", dim)
    end_codes = _read_code_section(index_dir / "ends.bin", dim)
    s_min, s_scale, e_min, e_scale = _read_quant_section(index_dir / "quant.bin", dim)
    heads, tails = _read_coherency_section(index_dir / "coherency.bin", width, len(start_codes))
    # keep-all: one start row, one end row, one head and one tail per token
    assert len(start_codes) == len(end_codes) == len(tails) == corpus.total_tokens()
    starts = s_min + (start_codes.astype(np.float64) + 128.0) * s_scale
    ends = e_min + (end_codes.astype(np.float64) + 128.0) * e_scale

    tfidf = fit_tfidf(corpus)
    doc_vecs = [tfidf.embed(doc) for doc in corpus]

    scored = []
    row_base = 0  # keep-all: one start row and one end row per token, in order
    for doc_ord, doc, para_idx, para in corpus.iter_paragraphs():
        combined = combine_doc_para(doc_vecs[doc_ord], tfidf.embed(para))
        # Match the on-disk float32 weights the search path consumes.
        combined_f32 = {
            int(b): float(np.float32(w)) for b, w in zip(combined.bins, combined.weights)
        }
        sparse_raw = sum(
            w * combined_f32.get(int(b), 0.0) for b, w in zip(q_sparse.bins, q_sparse.weights)
        )
        n = para.n_tokens
        for i in range(n):
            for j in range(i, min(i + max_span, n)):
                coherency = 0.0  # head_i . tail_j, summed in float64 over ascending columns
                for h, t in zip(heads[row_base + i], tails[row_base + j]):
                    coherency += float(h) * float(t)
                dense = (
                    float(starts[row_base + i] @ q_start)
                    + float(ends[row_base + j] @ q_end)
                    + q_coherency * float(np.float32(coherency))
                )
                scored.append(
                    (dense + sparse_scale * sparse_raw, doc_ord, para_idx, i, j)
                )
        row_base += n
    scored.sort(key=lambda t: (-t[0], t[1], t[2], t[3], t[4]))
    return scored
