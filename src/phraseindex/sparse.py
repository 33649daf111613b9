"""Hashed 2-gram tf-idf vectors, inverted-index retrieval, and learned sparse encoding.

InvertedIndex is the one posting type: built, opened and scored as the same CSR arrays of float32
weights. An index keeps two, one over the document vectors and one over the paragraphs' own
vectors, and score_docs scores a query against every vector of either in one pass. A posting's
weight is float32(tfidf_weights(tf, idf, norm)): the index stores each posting's term count tf and
each vector's norm, and posting_lists derives the weights from them at open."""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import CorpusStore, Document, Paragraph, Token

NGRAM_BINS = 1 << 24  # hashed vocabulary size, ~16.7M bins


def ngram_bin(ngram: str) -> int:
    """Stable 64-bit hash of an n-gram string, folded into the bin space."""
    digest = hashlib.blake2b(ngram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % NGRAM_BINS


@dataclass
class SparseVector:
    """Sorted (bin, weight) pairs; unit Euclidean norm after normalization, or empty."""

    bins: np.ndarray  # int64, strictly ascending
    weights: np.ndarray  # float64

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    @property
    def is_empty(self) -> bool:
        return self.bins.size == 0

    def norm(self) -> float:
        return float(np.linalg.norm(self.weights))

    def dot(self, other: "SparseVector") -> float:
        if self.is_empty or other.is_empty:
            return 0.0
        _, ia, ib = np.intersect1d(
            self.bins, other.bins, assume_unique=True, return_indices=True
        )
        if ia.size == 0:
            return 0.0
        return float(np.dot(self.weights[ia], other.weights[ib]))

    def normalized(self) -> "SparseVector":
        """Drop zero weights and scale to unit norm; all-zero input becomes empty."""
        keep = self.weights != 0.0
        bins, weights = self.bins[keep], self.weights[keep]
        n = float(np.linalg.norm(weights))
        if n == 0.0:
            return SparseVector.empty()
        return SparseVector(bins, weights / n)


def sparse_score(q: SparseVector, v: SparseVector) -> float:
    """Dot product over intersecting bins (cosine similarity for unit vectors)."""
    return q.dot(v)


def add_vectors(a: SparseVector, b: SparseVector) -> SparseVector:
    """Bin-wise sum of the two vectors, not renormalized."""
    bins = np.union1d(a.bins, b.bins)
    weights = np.zeros(bins.size, dtype=np.float64)
    weights[np.searchsorted(bins, a.bins)] += a.weights
    weights[np.searchsorted(bins, b.bins)] += b.weights
    return SparseVector(bins, weights)


def combine_doc_para(doc_vec: SparseVector, para_vec: SparseVector) -> SparseVector:
    """Bin-wise sum of the two vectors, renormalized to unit norm."""
    return add_vectors(doc_vec, para_vec).normalized()


def ngram_counts(words: Sequence[str]) -> Counter[int]:
    """How often each unigram and bigram bin of one run of lowercased words
    occurs; each n-gram is hashed once."""
    bigrams = [f"{w1} {w2}" for w1, w2 in zip(words, words[1:])]
    return Counter(map(ngram_bin, [*words, *bigrams]))


def token_counts(tokens: Sequence[Token] | Sequence[str]) -> Counter[int]:
    """ngram_counts of the lowercased tokens or surfaces: one paragraph's counts."""
    return ngram_counts([(t.surface if isinstance(t, Token) else t).lower() for t in tokens])


def summed_counts(parts: Iterable[Counter[int]]) -> Counter[int]:
    """The bin-wise sum of paragraphs' counts: their document's counts, since
    bigrams never cross paragraphs."""
    total: Counter[int] = Counter()
    for part in parts:
        total.update(part)
    return total


def _doc_counts(doc: Document) -> Counter[int]:
    """A document's bin counts, tokenizing and hashing each paragraph afresh."""
    return summed_counts(token_counts(para.surfaces()) for para in doc.paragraphs)


def idf_of_df(df: int, doc_count: int) -> float:
    """ln((N - df + 0.5) / (df + 0.5)) clamped at 0: the idf of a bin in df of N documents."""
    return max(0.0, math.log((doc_count - df + 0.5) / (df + 0.5)))


def idf_of_dfs(dfs: list[int], doc_count: int) -> np.ndarray:
    """idf_of_df of each df (a count, at least 0), in float64, taking the log
    once per distinct df. The scratch is a dict of the distinct dfs, O(len(dfs))
    whatever the document count."""
    idfs = {df: idf_of_df(df, doc_count) for df in set(dfs)}
    return np.fromiter(map(idfs.__getitem__, dfs), np.float64, len(dfs))


def tfidf_weights(tfs: np.ndarray, idfs: np.ndarray, norms: np.ndarray | float) -> np.ndarray:
    """(tf * idf) / norm entry by entry, in float64: the one weight formula.
    TfIdfModel.embed gives a vector these weights, norm being the norm of its
    tf * idf; a posting holds them as float32."""
    weights = tfs * idfs
    weights /= norms
    return weights


@dataclass
class TfIdfModel:
    """Document frequencies over the hashed unigram/bigram bin space."""

    doc_count: int
    doc_freq: dict[int, int]

    def idf(self, bin_: int) -> float:
        return idf_of_df(self.doc_freq.get(bin_, 0), self.doc_count)

    def embed(
        self,
        unit: Paragraph | Document | Sequence[Token] | Sequence[str] | Counter[int],
        rows: SparseRows | None = None,
    ) -> SparseVector:
        """tf * idf per bin, unit-normalized. A Counter is taken as bin counts
        already hashed (token_counts, summed_counts), so a caller that has them
        does not hash the text again. Given rows, the vector is also appended
        to them as its terms: its bins, their counts and its norm before
        normalization, from which tfidf_weights gives its weights back. The
        idfs of all the bins come from one idf_of_dfs, and the bins of zero
        weight are dropped with one mask."""
        if isinstance(unit, Counter):
            counts = unit
        elif isinstance(unit, Paragraph):
            counts = token_counts(unit.surfaces())
        elif isinstance(unit, Document):
            counts = _doc_counts(unit)
        else:
            counts = token_counts(unit)
        keys = sorted(counts)
        n = len(keys)
        bins = np.fromiter(keys, np.int64, n)
        tfs = np.fromiter(map(counts.__getitem__, keys), np.int64, n)
        idfs = idf_of_dfs([self.doc_freq.get(b, 0) for b in keys], self.doc_count)
        keep = np.flatnonzero(tfs * idfs)
        bins, tfs, idfs = bins[keep], tfs[keep], idfs[keep]
        norm = float(np.linalg.norm(tfs * idfs))
        if rows is not None:
            rows.append(bins, tfs, norm)
        if norm == 0.0:
            return SparseVector.empty()
        return SparseVector(bins, tfidf_weights(tfs, idfs, norm))


def fit_tfidf(corpus: CorpusStore) -> TfIdfModel:
    """Count, per hashed unigram/bigram bin, the number of documents containing it.
    Each paragraph is tokenized and hashed once, and neither result is kept."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    df: Counter[int] = Counter()
    for doc in corpus:
        df.update(_doc_counts(doc).keys())
    return TfIdfModel(doc_count=len(corpus), doc_freq=dict(df))


def embed_text_sparse(
    unit: Paragraph | Document | Sequence[Token] | Sequence[str], model: TfIdfModel
) -> SparseVector:
    """tf * idf per bin, idf = ln((N - df + 0.5)/(df + 0.5)) clamped at 0, unit-normalized."""
    return model.embed(unit)


class InvertedIndex(Mapping):
    """Read-only bin -> (ordinals, weights) over CSR arrays for n_docs vectors,
    documents or paragraphs: int64 bins (ascending), offsets and docs
    (ascending per bin), and float32 weights, a posting's weight being its
    vector's weight for that bin; bin bins[k]'s postings are at
    offsets[k]:offsets[k + 1]. A lookup is one searchsorted and two views;
    nothing is held per bin."""

    def __init__(
        self, n_docs: int, bins: np.ndarray, offsets: np.ndarray, docs: np.ndarray, weights: np.ndarray
    ):
        self.n_docs = n_docs
        self.bins, self.offsets, self.docs, self.weights = bins, offsets, docs, weights

    def __getitem__(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        k = int(np.searchsorted(self.bins, b))
        if k == self.bins.size or self.bins[k] != b:
            raise KeyError(b)
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return self.docs[lo:hi], self.weights[lo:hi]

    def __iter__(self):
        return iter(self.bins.tolist())

    def __len__(self) -> int:
        return self.bins.size


_WEIGHT_BLOCK = 1 << 14  # postings weighted at a time, so that open needs little scratch


def posting_lists(
    n_docs: int,
    bins: np.ndarray,
    offsets: np.ndarray,
    docs: np.ndarray,
    tfs: np.ndarray,
    idfs: np.ndarray,
    norms: np.ndarray,
) -> InvertedIndex:
    """The InvertedIndex over n_docs vectors and the CSR arrays, each posting
    weighted float32 of tfidf_weights of its tf, its bin's idf (idfs, one per
    bin) and its vector's norm (norms, one per vector), a block of postings
    at a time."""
    weights = np.empty(docs.size, dtype=np.float32)
    for lo in range(0, docs.size, _WEIGHT_BLOCK):
        at = slice(lo, lo + _WEIGHT_BLOCK)
        k = np.searchsorted(offsets, np.arange(lo, min(lo + _WEIGHT_BLOCK, docs.size)), "right")
        weights[at] = tfidf_weights(tfs[at], idfs[k - 1], norms[docs[at]])
    return InvertedIndex(n_docs, bins, offsets, docs, weights)


class SparseRows:
    """Sparse vectors appended one at a time to flat growing buffers, so no
    object is kept per vector: vector i has the bins bins[offsets[i]:
    offsets[i + 1]], their term counts tfs at the same places, and norms[i],
    its norm before normalization. A vector given as a SparseVector is taken
    as its own terms: its weights as the tfs, under idf 1 and norm 1. The
    arrays are views of the buffers, read once the last vector is in."""

    def __init__(self, vectors: Iterable[SparseVector] = ()):
        self._offsets = array("q", [0])
        self._bins = array("q")
        self._tfs = array("d")
        self._norms = array("d")
        for v in vectors:
            self.append(v.bins, v.weights)

    def append(self, bins: np.ndarray, tfs: np.ndarray, norm: float = 1.0) -> None:
        self._bins.frombytes(np.asarray(bins, np.int64).tobytes())
        self._tfs.frombytes(np.asarray(tfs, np.float64).tobytes())
        self._offsets.append(len(self._bins))
        self._norms.append(norm)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def offsets(self) -> np.ndarray:
        return np.frombuffer(self._offsets, np.int64)

    @property
    def bins(self) -> np.ndarray:
        return np.frombuffer(self._bins, np.int64)

    @property
    def tfs(self) -> np.ndarray:
        return np.frombuffer(self._tfs, np.float64)

    @property
    def norms(self) -> np.ndarray:
        return np.frombuffer(self._norms, np.float64)


def posting_order(
    vectors: SparseRows,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The postings of the vectors as CSR arrays (bins, offsets, docs), posting
    ordinal d being vector d, and order, the place in the vectors' entries of
    each posting: one stable sort of every entry by bin, so each bin's
    postings come out in ascending ordinal order."""
    order = np.argsort(vectors.bins, kind="stable")
    bins = vectors.bins[order]
    fresh = np.ones(bins.size, dtype=bool)  # whether each entry begins its bin's postings
    np.not_equal(bins[1:], bins[:-1], out=fresh[1:])
    heads = np.flatnonzero(fresh)
    del bins, fresh
    # The vector holding each entry, found from its place: no per-entry ordinal table is made.
    docs = np.searchsorted(vectors.offsets, order, side="right")
    docs -= 1
    return vectors.bins[order[heads]], np.append(heads, order.size), docs, order


def build_inverted_index(vectors: SparseRows) -> InvertedIndex:
    """The postings of vectors given as SparseVectors, each weighted float32
    of its vector's weight by posting_lists, under idf 1 and norm 1."""
    bins, offsets, docs, order = posting_order(vectors)
    return posting_lists(
        len(vectors), bins, offsets, docs, vectors.tfs[order], np.ones(bins.size), vectors.norms
    )


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores, best first; ties go to the lower position."""
    if scores.size > k:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)  # every score tied with the k-th stays in
    else:
        keep = np.arange(scores.size)
    return keep[np.argsort(-scores[keep], kind="stable")[:k]]


def retrieve_top_docs(
    q: SparseVector, index: InvertedIndex, k: int, scores: np.ndarray | None = None
) -> list[tuple[int, float]]:
    """Top-k documents by sparse score, ties broken by ascending doc ordinal.

    Identical to brute-force scoring of every document; an empty query yields
    an empty result. `scores`, when given, is score_docs(q, index), which a
    caller that needs every document's score computes once for both.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if q.is_empty:
        return []
    if scores is None:
        scores = score_docs(q, index)
    return [(int(d), float(scores[d])) for d in _top_k(scores, k)]


def score_docs(q: SparseVector, index: InvertedIndex) -> np.ndarray:
    """q . d for every vector d of the index, document or paragraph: one
    searchsorted of the query bins, one gather of their posting ranges and
    one bincount. The entries stay in query-bin order, so each vector sums
    its terms in that order and gets the same bits whichever other vectors
    share its posting lists."""
    k = np.searchsorted(index.bins, q.bins)
    hit = k < index.bins.size
    hit[hit] = index.bins[k[hit]] == q.bins[hit]
    k = k[hit]
    lo, sizes = index.offsets[k], index.offsets[k + 1] - index.offsets[k]
    # Each entry's place: its range's start plus its rank within the range.
    entries = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    terms = np.repeat(q.weights[hit], sizes) * index.weights[entries]
    scores = np.bincount(index.docs[entries], terms, minlength=index.n_docs)
    return scores.astype(np.float64, copy=False)  # bincount of nothing gives int64 zeros


# ---------------------------------------------------------------------------
# Learned sparse encoding (not used by the index pipeline)
# ---------------------------------------------------------------------------


@dataclass
class LinearMap:
    weight: np.ndarray  # (d, d)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T


@dataclass
class TwoLayerMap:
    w1: np.ndarray  # (h, d)
    w2: np.ndarray  # (d, h)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.w1.T, 0.0) @ self.w2.T


def learned_sparse_encode(
    dense: np.ndarray,
    word_ids: np.ndarray,
    vocab_size: int,
    q_map: Callable[[np.ndarray], np.ndarray],
    k_map: Callable[[np.ndarray], np.ndarray],
) -> list[SparseVector]:
    """ReLU-clipped attention over token encodings, scattered onto word bins.

    Row t of the result holds, for each vocabulary id w, the summed positive
    attention from position t to every position carrying word w. Entries are
    therefore nonnegative, and the result is kept in sparse form (never a
    T x vocab_size dense matrix).
    """
    dense = np.asarray(dense, dtype=np.float64)
    word_ids = np.asarray(word_ids, dtype=np.int64)
    if dense.ndim != 2:
        raise ValueError("dense must be a T x d matrix")
    if word_ids.shape != (dense.shape[0],):
        raise ValueError("shape mismatch: word_ids must have one id per token")
    if word_ids.size and (word_ids.min() < 0 or word_ids.max() >= vocab_size):
        raise ValueError("word id out of vocabulary range")
    transformed_q = q_map(dense)
    transformed_k = k_map(dense)
    if transformed_q.shape != dense.shape or transformed_k.shape != dense.shape:
        raise ValueError("shape mismatch: transforms must preserve T x d shape")
    attn = np.maximum(transformed_q @ transformed_k.T, 0.0)

    order = np.argsort(word_ids, kind="stable")
    sorted_ids = word_ids[order]
    unique_ids, starts = np.unique(sorted_ids, return_index=True)
    rows: list[SparseVector] = []
    for t in range(dense.shape[0]):
        sums = np.add.reduceat(attn[t, order], starts)
        keep = sums != 0.0
        rows.append(SparseVector(unique_ids[keep].copy(), sums[keep].astype(np.float64)))
    return rows
