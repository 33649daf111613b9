"""Answer retrieval over a loaded phrase index.

A strategy only chooses which start records to score: exact takes every
record, sparse-first (SFS) the records of the top sparse documents,
dense-first (DFS) the best start rows found by an IVF probe, and hybrid the
union of the SFS and DFS sets. One kernel then scores every phrase starting at
those records and keeps the top k, so a phrase gets the same score under every
strategy, and hybrid scores the union once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .corpus import SpanRef, tokenize
from .dense import QueryDenseVector, question_dense
from .sparse import SparseVector, retrieve_top_docs, sparse_score

if TYPE_CHECKING:
    from .index import PhraseIndex

STRATEGIES = ("exact", "sfs", "dfs", "hybrid")


@dataclass
class SearchConfig:
    strategy: str = "hybrid"
    top_k: int = 10
    sparse_top_docs: int = 5  # documents kept by the sparse-first stage
    dense_top_starts: int = 1000  # start vectors kept by the dense-first stage
    nprobe: int = 64  # IVF cells probed
    sparse_scale: float = 0.05  # weight on the sparse score in the total

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if min(self.top_k, self.sparse_top_docs, self.dense_top_starts, self.nprobe) < 1:
            raise ValueError("all count parameters must be >= 1")
        if self.sparse_scale < 0:
            raise ValueError("sparse_scale must be >= 0")


@dataclass
class QueryVector:
    """Question embedding: dense (start, end, coherency) plus a sparse vector."""

    dense: QueryDenseVector
    sparse: SparseVector


@dataclass
class SearchResult:
    text: str
    span: SpanRef
    score: float  # dense_score + sparse_scale * sparse_score
    dense_score: float
    sparse_score: float  # unscaled
    doc_title: str
    strategy: str

    def as_dict(self) -> dict:
        """The result in the layout of the HTTP response and `phraseindex query`."""
        return {
            "text": self.text,
            "doc_id": self.span.doc_id,
            "doc_title": self.doc_title,
            "para_idx": self.span.para_idx,
            "start_token": self.span.i,
            "end_token": self.span.j,
            "score": self.score,
            "dense_score": self.dense_score,
            "sparse_score": self.sparse_score,
            "strategy": self.strategy,
        }


@dataclass
class SearchOutput:
    results: list[SearchResult]
    visited_doc_ordinals: frozenset[int]
    strategy: str

    @property
    def docs_visited(self) -> int:
        return len(self.visited_doc_ordinals)


def embed_question(index: "PhraseIndex", text: str) -> QueryVector:
    """Embed question text with the index's own encoder and tf-idf model."""
    if index.encoder is None:
        raise RuntimeError(
            "index was built with precomputed embeddings; construct the "
            "QueryVector from a precomputed question embedding instead"
        )
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty question")
    dense = question_dense(index.encoder.encode_question(tokens))
    return QueryVector(dense=dense, sparse=index.tfidf.embed(tokens))


# ---------------------------------------------------------------------------
# Shared scoring kernel
# ---------------------------------------------------------------------------


_LOGIT_BLOCK = 1024  # rows dequantized at a time, to bound the float64 scratch


def _row_logits(
    dequant: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Inner product of q with each stored row in `rows`, dequantized a block
    at a time. A per-row reduction, unlike a BLAS matmul, gives a row the same
    bits whichever other rows share its block."""
    out = np.empty(rows.size, dtype=np.float64)
    for b in range(0, rows.size, _LOGIT_BLOCK):
        out[b : b + _LOGIT_BLOCK] = np.einsum("ij,j->i", dequant(rows[b : b + _LOGIT_BLOCK]), q)
    return out


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores, best first; ties go to the lower position."""
    if scores.size > k:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)  # every score tied with the k-th stays in
    else:
        keep = np.arange(scores.size)
    return keep[np.argsort(-scores[keep], kind="stable")[:k]]


def _ranges(begin: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(b, b + c) over the (begin, count) pairs."""
    stop = np.cumsum(count)
    return np.arange(stop[-1] if stop.size else 0) + np.repeat(begin - (stop - count), count)


def _score_starts(
    index: "PhraseIndex",
    query: QueryVector,
    recs: np.ndarray,
    config: SearchConfig,
    label: Callable[[int], str],
) -> list[SearchResult]:
    """Score every stored phrase that starts at one of the ascending start
    records `recs` and return the best config.top_k, labelled by start record.

    Record r is start row r, and phrase ids ascend in (doc, para, i, j) order,
    so ranking on (-score, phrase id) gives the documented tie-break. Every
    term is computed per row, per phrase or per paragraph, so a phrase scores
    the same bits whichever set of records it is scored in.
    """
    n_ends = index.rec_n_ends[recs]
    phrase = _ranges(index.rec_ends_begin[recs], n_ends)
    end_rows, end_of = np.unique(index.end_entries["row"][phrase], return_inverse=True)
    paras, para_of = np.unique(index.rec_para[recs], return_inverse=True)
    sparse = np.array(
        [sparse_score(query.sparse, index.para_vector(int(p))) for p in paras], dtype=np.float64
    )

    # Built in place, term by term, to keep few phrase-sized arrays alive.
    dense = np.repeat(_row_logits(index.dequant_start_rows, recs, query.dense.start), n_ends)
    dense += _row_logits(index.dequant_end_rows, end_rows, query.dense.end)[end_of]
    coh = index.coherency[phrase].astype(np.float64)
    coh *= query.dense.coherency
    dense += coh
    total = np.repeat(config.sparse_scale * sparse[para_of], n_ends)
    total += dense

    top = _top_k(total, config.top_k)
    owners = np.searchsorted(np.cumsum(n_ends), top, side="right")  # positions in recs
    results = []
    for c, k in zip(top, owners):
        r = int(recs[k])
        rec = index.start_records[r]
        doc_ord = int(rec["doc"])
        ref = SpanRef(
            doc_id=index.doc_id(doc_ord),
            para_idx=int(rec["para"]),
            i=int(rec["tok"]),
            j=int(index.end_entries[phrase[c]]["tok"]),
        )
        results.append(
            SearchResult(
                text=index.span_text(ref),
                span=ref,
                score=float(total[c]),
                dense_score=float(dense[c]),
                sparse_score=float(sparse[para_of[k]]),
                doc_title=index.doc_title(doc_ord),
                strategy=label(r),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Strategies: each one only chooses the start records to score
# ---------------------------------------------------------------------------


def _sfs_starts(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> tuple[np.ndarray, frozenset[int]]:
    """Start records of the top sparse documents, and those documents."""
    ranked = retrieve_top_docs(query.sparse, index.postings, config.sparse_top_docs)
    docs = np.sort(np.array([d for d, _ in ranked], dtype=np.int64))
    begin = index.doc_rec_begin[docs]
    return _ranges(begin, index.doc_rec_begin[docs + 1] - begin), frozenset(docs.tolist())


def _dfs_starts(
    index: "PhraseIndex", ivf: "IvfIndex | None", query: QueryVector, config: SearchConfig
) -> np.ndarray:
    """Probe the IVF cells whose centroids score highest against the start
    query, and keep the best-scoring start rows found in them, ascending."""
    if ivf is None:
        raise ValueError("missing ivf section: build the index with build_ivf=True")
    probe = _top_k(ivf.centroids @ query.dense.start, config.nprobe)
    cand_rows = np.sort(np.concatenate([ivf.lists[int(c)] for c in probe]))
    start_logits = _row_logits(index.dequant_start_rows, cand_rows, query.dense.start)
    return np.sort(cand_rows[_top_k(start_logits, config.dense_top_starts)])


def _docs_of(index: "PhraseIndex", recs: np.ndarray) -> frozenset[int]:
    return frozenset(index.start_records["doc"][recs].tolist())


def exact_search(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> SearchOutput:
    """Score every stored phrase; the oracle for all approximate strategies."""
    if index.n_phrases == 0:
        raise RuntimeError("empty index")
    recs = np.arange(index.n_start_rows, dtype=np.int64)
    return SearchOutput(
        results=_score_starts(index, query, recs, config, lambda r: "exact"),
        visited_doc_ordinals=frozenset(range(index.n_docs)),
        strategy="exact",
    )


def sfs_search(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> SearchOutput:
    """Sparse-first: exact scoring restricted to the top sparse documents."""
    recs, docs = _sfs_starts(index, query, config)
    return SearchOutput(
        results=_score_starts(index, query, recs, config, lambda r: "sfs"),
        visited_doc_ordinals=docs,
        strategy="sfs",
    )


def dfs_search(
    index: "PhraseIndex",
    ivf: "IvfIndex | None",
    query: QueryVector,
    config: SearchConfig,
) -> SearchOutput:
    """Dense-first: probe IVF cells by start score, keep the best start rows,
    then expand each retrieved start over its surviving end window."""
    recs = _dfs_starts(index, ivf, query, config)
    return SearchOutput(
        results=_score_starts(index, query, recs, config, lambda r: "dfs"),
        visited_doc_ordinals=_docs_of(index, recs),
        strategy="dfs",
    )


def hybrid_search(
    index: "PhraseIndex",
    ivf: "IvfIndex | None",
    query: QueryVector,
    config: SearchConfig,
) -> SearchOutput:
    """The union of the SFS and DFS start records, scored once. A result is
    labelled "sfs", "dfs" or "sfs+dfs" by the set(s) its start record is in."""
    sfs_recs, sfs_docs = _sfs_starts(index, query, config)
    dfs_recs = _dfs_starts(index, ivf, query, config)
    in_sfs, in_dfs = set(sfs_recs.tolist()), set(dfs_recs.tolist())
    names = {(True, True): "sfs+dfs", (True, False): "sfs", (False, True): "dfs"}
    return SearchOutput(
        results=_score_starts(
            index, query, np.union1d(sfs_recs, dfs_recs), config,
            lambda r: names[r in in_sfs, r in in_dfs],
        ),
        visited_doc_ordinals=sfs_docs | _docs_of(index, dfs_recs),
        strategy="hybrid",
    )


def run_search(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> SearchOutput:
    """Dispatch on config.strategy, using the index's own IVF where needed."""
    if config.strategy == "exact":
        return exact_search(index, query, config)
    if config.strategy == "sfs":
        return sfs_search(index, query, config)
    if config.strategy == "dfs":
        return dfs_search(index, index.ivf, query, config)
    return hybrid_search(index, index.ivf, query, config)


# ---------------------------------------------------------------------------
# IVF coarse quantizer
# ---------------------------------------------------------------------------


@dataclass
class IvfIndex:
    """K-means centroids over start rows plus per-cell posting lists."""

    centroids: np.ndarray  # (n_clusters, boundary_dim)
    lists: list[np.ndarray]  # row ids, ascending, one array per cluster


def _assign(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Squared Euclidean distance; the ||rows||^2 term is constant per row.
    d2 = -2.0 * (rows @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
    return np.argmin(d2, axis=1)


def kmeans_train(
    rows: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    max_iter: int = 25,
    tol: float = 1e-4,
) -> IvfIndex:
    """Seeded k-means++ init, then Lloyd iterations until the maximum centroid
    shift drops below tol or the iteration cap is reached."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n_clusters > n:
        raise ValueError(f"n_clusters {n_clusters} exceeds row count {n}")
    rng = np.random.default_rng(seed)

    if n_clusters == n:
        centroids = rows.copy()
    else:
        centroids = np.empty((n_clusters, rows.shape[1]), dtype=np.float64)
        centroids[0] = rows[int(rng.integers(n))]
        d2 = ((rows - centroids[0]) ** 2).sum(axis=1)
        for t in range(1, n_clusters):
            total = float(d2.sum())
            if total <= 0.0:
                idx = int(np.argmax(d2))
            else:
                idx = int(rng.choice(n, p=d2 / total))
            centroids[t] = rows[idx]
            d2 = np.minimum(d2, ((rows - centroids[t]) ** 2).sum(axis=1))

    for _ in range(max_iter):
        assign = _assign(rows, centroids)
        new_centroids = centroids.copy()
        for c in range(n_clusters):
            members = rows[assign == c]
            if members.shape[0]:
                new_centroids[c] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    assign = _assign(rows, centroids)
    lists = [np.flatnonzero(assign == c).astype(np.int64) for c in range(n_clusters)]
    return IvfIndex(centroids=centroids, lists=lists)
