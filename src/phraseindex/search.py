"""Answer retrieval over a loaded phrase index.

A strategy only chooses which start records to score: exact takes every
record, sparse-first (SFS) the records of the top sparse documents,
dense-first (DFS) the best start rows found by an IVF probe, and hybrid the
union of the SFS and DFS sets. One kernel then scores every phrase starting at
those records and keeps the top k, so a phrase gets the same score under every
strategy, and hybrid scores the union once.

The kernel takes the records in fixed-size blocks. A block's start and end
logits are inner products with the int8 codes, the quantizer's affine map
folded into the query, so no float copy of a stored vector is kept. Each
record gets an upper bound on its phrases' scores from its start logit, the
best end logit in its own window of end rows and the largest coherency term,
and only the records whose bound reaches the running k-th best score (the
floor) are expanded: their phrases form a rectangle of records by window
offsets, each cell bounded the same way with its own end logit, and only the
cells whose bound reaches the floor get their coherency (phrase_coherency,
from the stored head and tail rows) and a score in float64. Every bound is
built from float32 logits (a BLAS matrix-vector product over the codes) plus
a rounding margin proven once per query, and only the cells whose bound
reaches the floor get float64 logits of their own rows. Those logits are the
only source of a score's bits, so the results are the same bits as with
float64 bounds. The first block seeds the floor from the cells of its
records of largest bound. The rectangle is cut to the block's best before
the next block, so the scratch per query does not grow with the number of
records. The output counts the start rows and phrases scored, and the
phrases expanded.

A query's fixed cost stays small. embed_question encodes only the marker
row's window, the marker and the next `window` tokens of the question, since
the dense vector is read from that row alone, and the tf-idf model takes the
idfs of all the question's bins in one pass. Every paragraph's sparse score
is read from whole arrays. A block's bounds convert the codes to float32 in
chunks small enough to stay in a core's L2 cache. A block of consecutive
records in an index whose records' end rows chain (PhraseIndex.rec_ends_chain)
reads its end rows as one range, without checking or merging intervals. The
top k are assembled in one pass: each field of the k winners (document,
paragraph, start and end token, score, dense and sparse score) is gathered
with one index and one tolist().
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .corpus import SpanRef, Token, tokenize
from .dense import QueryDenseVector, question_dense
from .sparse import SparseVector, _top_k, retrieve_top_docs, score_docs

if TYPE_CHECKING:
    from .index import PhraseIndex, QuantizationParams

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
        for name in ("top_k", "sparse_top_docs", "dense_top_starts", "nprobe"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"counts must be integers: {name} is {value!r}")
            if value < 1:
                raise ValueError(f"counts must be >= 1: {name} is {value}")
        # NaN fails every comparison with the floor, and inf * 0 is NaN: either
        # would silently drop every phrase.
        if isinstance(self.sparse_scale, bool) or not math.isfinite(self.sparse_scale):
            raise ValueError("sparse_scale must be a finite number")
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
    start_rows_scored: int  # start records the kernel scored
    # Phrases starting at the records, each scored or ruled out by its record's bound.
    phrases_scored: int
    phrases_expanded: int  # of those, the phrases whose score was computed in full

    @property
    def docs_visited(self) -> int:
        return len(self.visited_doc_ordinals)


def embed_question(
    index: "PhraseIndex", text: str, tokens: list[Token] | None = None
) -> QueryVector:
    """Embed question text with the index's own encoder and tf-idf model.
    `tokens`, when given, is tokenize(text): a caller that has already
    tokenized the question passes them on, so it is not tokenized twice.

    The dense vector is read from the marker row alone (question_dense), and
    that row's features are the marker and the next `encoder.window` tokens,
    so only those tokens are encoded: window + 1 rows instead of one per
    token, with row 0 the same bits as in the whole question's encoding. At
    least one token is kept, because numpy takes a one-row product through a
    matrix-vector BLAS call that may round differently from the matrix
    product of two rows or more. The sparse vector takes every token."""
    if index.encoder is None:
        raise RuntimeError(
            "index was built with precomputed embeddings; construct the "
            "QueryVector from a precomputed question embedding instead"
        )
    if tokens is None:
        tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty question")
    marker_window = tokens[: max(1, index.encoder.window)]
    dense = question_dense(index.encoder.encode_question(marker_window))
    return QueryVector(dense=dense, sparse=index.tfidf.embed(tokens))


# ---------------------------------------------------------------------------
# Shared scoring kernel
# ---------------------------------------------------------------------------


_BLOCK = 8192  # start records scored at a time; bounds the kernel's scratch
_LOGIT_BLOCK = 1024  # code rows converted to float64 at a time by _code_logits
# Most bytes of float32 code rows converted at a time by _code_bounds: small
# enough that the chunk and its codes stay in a core's L2 cache between blocks.
_BOUND_BYTES = 1 << 18
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoff of float32 and float64


def _fold(quant: "QuantizationParams", q: np.ndarray) -> tuple[float, np.ndarray]:
    """(c0, w) with q . dequantize(codes) = c0 + codes . w for any code row:
    the affine map minimums + (codes + 128) * scales folded into the query."""
    return float(np.dot(q, quant.minimums + 128.0 * quant.scales)), q * quant.scales


def _take(values: np.ndarray, rows: np.ndarray | range) -> np.ndarray:
    """values[rows], through a slice when `rows` is a range of step 1."""
    if isinstance(rows, range):
        return values[rows.start : rows.stop]
    return values.take(rows, axis=0)


def _code_logits(
    codes: np.ndarray, rows: np.ndarray | range, fold: tuple[float, np.ndarray]
) -> np.ndarray:
    """Inner product of the query folded into `fold` with each int8 code row in
    `rows` (an array of row ids, or a range read through a slice), in float64,
    converted a _LOGIT_BLOCK of rows at a time. A per-row reduction, unlike a
    BLAS matmul, gives a row the same bits whichever other rows share its
    block."""
    c0, w = fold
    out = np.empty(len(rows), dtype=np.float64)
    for b in range(0, len(rows), _LOGIT_BLOCK):
        block = _take(codes, rows[b : b + _LOGIT_BLOCK]).astype(np.float64)
        out[b : b + _LOGIT_BLOCK] = np.einsum("ij,j->i", block, w)
    out += c0
    return out


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u): the relative error bound of a dot product
    of length n in unit roundoff u, whatever the order of its sum."""
    return n * u / (1.0 - n * u)


def _bound_margin(c0: float, w: np.ndarray) -> float:
    """The margin M of _code_bounds for the fold (c0, w) of a query: on every
    code row the float32 logit float64(float32 dot) + c0 is within M / 2 of
    _code_logits' float64 logit.

    Let A = 128 ||w||_1 and d = w.size; |codes| <= 128, so every partial sum
    of codes . w is at most A in size, and so is the exact S = codes . w.
    - float64 (_code_logits): einsum sums d products in some order, so
      |S64 - S| <= gamma_d(u64) A; then adding c0 rounds once, by at most
      u64 (|c0| + 2A).
    - float32 (_code_bounds): float32(w) is w to a relative u32, which moves
      the sum by at most u32 A. The float32 dot product of codes, exact in
      float32, with float32(w) is within gamma_d(u32) (1 + u32) A of its exact
      value, for any order of the sum (a BLAS sgemv with or without FMA). It
      is widened to float64 exactly, and adding c0 rounds once, by at most
      u64 (|c0| + 2A).
    - Products or weights that fall below float32's normal range lose at most
      2^-150 each in absolute terms (sums of subnormals are exact): 129 d
      2^-150 over w and the d products.
    The sum of these bounds the distance between the two logits. A and M are
    themselves computed in float64, to a relative error below 1e-14, which
    the factor 2 covers many times over. Where float32 could overflow
    (A >= 2^120, or A is NaN) the margin is inf and no record is ruled out."""
    d = w.size
    a = 128.0 * float(np.abs(w).sum())
    if not a < 2.0**120:
        return math.inf
    err = a * (_gamma(d, _U32) * (1.0 + _U32) + _U32 + _gamma(d, _U64))
    err += 2.0 * _U64 * (abs(c0) + 2.0 * a) + 129 * d * 2.0**-150
    return 2.0 * err


def _fold32(fold: tuple[float, np.ndarray]) -> tuple[float, np.ndarray, float]:
    """(c0, float32(w), margin) for _code_bounds. An infinite margin comes
    with zero weights, so no bound is inf - inf or 0 * inf."""
    c0, w = fold
    margin = _bound_margin(c0, w)
    w32 = w.astype(np.float32) if math.isfinite(margin) else np.zeros(w.size, np.float32)
    return c0, w32, margin


def _code_bounds(
    codes: np.ndarray, rows: np.ndarray | range, fold32: tuple[float, np.ndarray, float]
) -> np.ndarray:
    """An upper bound on _code_logits(codes, rows, fold) for each row, from a
    float32 matrix-vector product over the codes (BLAS sgemv): (float64(dot)
    + c0) + margin, each add in float64. The margin is twice the largest gap
    between the two values (_bound_margin), so the bound is at least the
    float64 logit on every row. The rows are converted to float32 in chunks
    of at most _BOUND_BYTES, 2,340 rows at boundary_dim 28. BLAS may sum a
    row in another order by where it falls in its chunk, so the chunking can
    move a bound's last bits, but never past the margin, which holds for any
    order of the sum."""
    c0, w32, margin = fold32
    step = max(1, _BOUND_BYTES // (4 * codes.shape[1]))
    out = np.empty(len(rows), dtype=np.float64)
    for b in range(0, len(rows), step):
        block = _take(codes, rows[b : b + step]).astype(np.float32)
        out[b : b + step] = block @ w32
    out += c0
    out += margin
    return out


def _window_max(values: np.ndarray, width: int) -> np.ndarray:
    """out[i] = max(values[i : i + width]) for each i, a window that runs past
    the end cut short there. Each pass takes the maximum of the running
    result and itself shifted by a shift s, which widens every window by s:
    doubling passes, then one shift of width minus the last power of two, so
    about log2(width) passes. A pass writes to a second buffer, since numpy
    would copy an input that overlaps its output."""
    out, spare = values.copy(), np.empty_like(values)
    have = 1
    while have < width:
        s = min(have, width - have)
        np.maximum(out[:-s], out[s:], out=spare[:-s])
        spare[-s:] = out[-s:]  # windows already past the end
        out, spare = spare, out
        have += s
    return out


def _record_bounds(
    start: np.ndarray,
    end: np.ndarray,
    end_first: np.ndarray,
    n_ends: np.ndarray,
    coh_top: float,
    sparse_term: np.ndarray,
) -> np.ndarray:
    """Each record's bound: ((the largest of `end` in its window + its
    `start`) + coh_top) + its `sparse_term`, or -inf for a record without
    ends. Record r's ends sit at end[end_first[r] : end_first[r] + n_ends[r]],
    so a window as wide as the widest record's from its own first end covers
    them. A record without ends reads some other record's window, a real end
    value rather than -inf, and is masked once the sums are done, so no
    inf + -inf arises even where the bounds are inf."""
    bound = _window_max(end, int(n_ends.max())).take(end_first, mode="clip")
    bound += start
    bound += coh_top
    bound += sparse_term
    bound[n_ends == 0] = -np.inf
    return bound


def phrase_coherency(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Coherency of each phrase whose float32 head and tail rows pair up along
    the last axis, the other axes broadcasting: float32 of the float64 sum,
    over the columns c in ascending order, of float64(head[..., c]) *
    float64(tail[..., c]). A product of two float32 values is exact in
    float64, and the column loop fixes the order of the sum, so a phrase gets
    the same bits in any batch. The build's coherency range and the kernel
    take coherency from here; a result keeps the kernel's dense score."""
    products = np.multiply(head, tail, dtype=np.float64)
    total = products[..., 0].copy()
    for c in range(1, products.shape[-1]):
        total += products[..., c]
    return total.astype(np.float32)


def _ranges(begin: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(b, b + c) over the (begin, count) pairs: each
    range's begin less its place in the output, repeated over the range,
    plus the place of each element."""
    place = np.cumsum(count)
    place -= count
    out = np.repeat(begin - place, count)
    out += np.arange(out.size)
    return out


def _end_ranges(begin: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the row intervals [begin, begin + count) of a run of records.

    Returns the distinct rows, ascending, and for each interval the position
    of its row `begin` among them; row begin + t sits at that position + t.
    The begins must be nondecreasing: each interval adds only its rows past
    the largest stop before it, and its rows below that stop are already in,
    because the interval with that stop began no later.
    """
    stop = begin + count
    covered = np.zeros_like(stop)
    np.maximum.accumulate(stop[:-1], out=covered[1:])
    lo = np.maximum(begin, covered)
    fresh = np.maximum(stop - lo, 0)
    first = np.cumsum(fresh) - fresh - (lo - begin)
    return _ranges(lo, fresh), first


def _block_end_rows(
    index: "PhraseIndex", blk: np.ndarray | range, n_ends: np.ndarray
) -> tuple[np.ndarray | range, np.ndarray]:
    """The distinct end rows of the ascending start records `blk`, ascending,
    and the position among them of each record's first end row. A range of
    records of an index whose records' end rows chain (rec_ends_chain) has
    one run of end rows, from the first record's first end row to the last
    record's stop, read as a range, and the positions are the begins less
    the first; any other records are merged by _end_ranges."""
    begin = _take(index.rec_end_row, blk)
    if isinstance(blk, range) and index.rec_ends_chain:
        return range(int(begin[0]), int(begin[-1] + n_ends[-1])), begin - begin[0]
    return _end_ranges(begin, n_ends)


def _para_sparse(
    index: "PhraseIndex", q: SparseVector, doc_scores: np.ndarray | None = None
) -> np.ndarray:
    """Sparse score of q against the combined vector of every paragraph:
    (q.doc + q.para) * inv_norm. q.doc is read from `doc_scores`,
    score_docs' pass over the document postings (made here when not given),
    and q.para from score_docs' pass over index.para_postings, the postings
    of the paragraph-only vectors; a document's only paragraph has none, and
    takes q.doc. The per-paragraph arrays are read whole, without a gather."""
    if doc_scores is None:
        doc_scores = score_docs(q, index.postings)
    from_doc = doc_scores[index.para_doc]
    from_para = score_docs(q, index.para_postings)
    np.copyto(from_para, from_doc, where=index.para_sole)
    from_para += from_doc
    from_para *= index.para_inv_norm
    return from_para


def _score_starts(
    index: "PhraseIndex",
    query: QueryVector,
    recs: np.ndarray | range,
    config: SearchConfig,
    visited: frozenset[int],
    strategy: str,
    label: Callable[[int], str] | None = None,
    doc_scores: np.ndarray | None = None,
) -> SearchOutput:
    """Score every stored phrase that starts at one of the ascending start
    records `recs` (an array, or a range for all of them), keep the best
    config.top_k and count the work done. A result is labelled label(start
    record), or `strategy` without a label. `doc_scores` is q . d for every
    document, as score_docs computes it when it is not given. The sparse
    score of every paragraph (_para_sparse) is taken once for the query, and
    each block reads its records' paragraphs from it.

    The records are scored _BLOCK at a time. A block's phrases form a
    rectangle of records by window offsets t below the largest rec_n_ends,
    stored offset-major so that per-record terms broadcast along long rows.
    Cell (r, t) is the phrase from start row r to end row rec_end_row[r] + t,
    and is valid when t < rec_n_ends[r]. Its total is
    ((start + end) + coherency * q_c) + sparse_scale * sparse, in float64,
    with coherency = phrase_coherency(head row r, tail row of its end) and
    start and end the float64 logits of _code_logits. Those are the only
    source of a score's bits.

    The floor is a score that at least k cells already reach, so no cell
    below it can be in the top k. A bound sums the same terms in the same
    order with c_top, the larger of float64(coherency) * q_c at the least and
    greatest coherency of the index, in place of the coherency term, and
    with upper bounds on the start and end logits in place of the logits:
    _code_bounds, float32 logits (a BLAS matrix-vector product over the
    codes) plus a rounding margin proven once per query. Rounding to nearest
    is monotone, so no cell scores above its bound. Record r's bound takes
    the largest end bound in a window as wide as the block's widest record
    from its own first end (_window_max), which covers its own ends; only
    the records whose bound reaches the floor are expanded into a rectangle,
    where each cell's bound takes its own end bound, and only the valid
    cells whose bound reaches the floor get float64 logits of their own
    start and end rows, their coherency and a score. A cell let through only
    because a float32 bound is looser than a float64 one is below the floor
    on its float64 bound, so its score neither raises the floor nor is kept.

    While no floor exists, a block of more than k records seeds it from the
    real scores of all the cells of its 2k records of largest bound, when
    they have at least k cells; when no other record reaches that floor,
    those cells are the block's expansion. A block of at most k records is
    expanded whole.

    A block keeps every score at or above both the floor and its own k-th
    best, ties included, and raises the floor to the larger of the two, so
    the overall top k is among the kept cells. Record r is start row r and
    phrases ascend in (doc, para, i, j) order with (r, t), as do the kept
    cells, block after block; ranking them on (-score, position) gives the
    documented tie-break. Every term is computed per row, per phrase or per
    paragraph, so a phrase scores the same bits in any set of records. The
    scratch is O(_BLOCK x max_span), whatever the number of records, besides
    one float64 per paragraph.
    """
    q = query.dense
    start_fold = _fold(index.start_quant, q.start)
    end_fold = _fold(index.end_quant, q.end)
    start_fold32, end_fold32 = _fold32(start_fold), _fold32(end_fold)
    start_codes, end_codes, heads, tails = index.code_arrays()
    coh_lo, coh_hi = index.coherency_range
    coh_top = max(coh_lo * q.coherency, coh_hi * q.coherency)
    k, scale = config.top_k, config.sparse_scale
    para_scores = _para_sparse(index, query.sparse, doc_scores=doc_scores)
    unset = floor = -np.finfo(np.float64).max
    kept = []  # per block: score, dense score, sparse, start record, offset
    n_scored = n_expanded = 0
    for b in range(0, len(recs), _BLOCK):
        blk = recs[b : b + _BLOCK]
        n_ends = _take(index.rec_n_ends, blk)
        n_valid = int(n_ends.sum())
        if n_valid == 0:
            continue
        n_scored += n_valid
        sparse = para_scores[_take(index.rec_para, blk)]
        end_rows, end_first = _block_end_rows(index, blk, n_ends)
        start = _code_bounds(start_codes, blk, start_fold32)
        end = _code_bounds(end_codes, end_rows, end_fold32)
        bound = _record_bounds(start, end, end_first, n_ends, coh_top, scale * sparse)
        if isinstance(blk, range):
            blk = np.arange(blk.start, blk.stop)

        def cells(sel: np.ndarray, floor: float) -> tuple:
            """The valid cells of the records blk[sel] whose bound reaches
            `floor`, in (record, offset) order, that is by ascending phrase
            id: their positions in `sel`, their offsets, their scores and
            their dense scores, (end + start) + coherency * q_c."""
            sel_ends = n_ends[sel]
            offsets = np.arange(int(sel_ends.max()))[:, None]
            at = end_first[sel] + offsets
            start_end = np.take(end, at, mode="clip")
            start_end += start[sel]
            cell_sparse = scale * sparse[sel]
            reach = start_end + coh_top
            reach += cell_sparse
            reach = reach >= floor
            reach &= offsets < sel_ends
            col, t = np.nonzero(reach.T)
            rec = blk[sel[col]]
            end_row = index.rec_end_row[rec] + t
            dense = _code_logits(end_codes, end_row, end_fold)
            dense += _code_logits(start_codes, rec, start_fold)
            coh = phrase_coherency(heads[rec], tails[end_row])
            dense += np.multiply(coh, q.coherency, dtype=np.float64)
            return col, t, dense + cell_sparse[col], dense

        seeded = None
        if floor == unset and bound.size > k:
            seed = np.sort(np.argpartition(bound, -min(2 * k, bound.size))[-2 * k :])
            if int(n_ends[seed].sum()) >= k:
                seeded = cells(seed, floor)
                floor = float(np.partition(seeded[2], -k)[-k])
        live = np.flatnonzero(bound >= floor)
        if live.size == 0:
            continue
        n_expanded += int(n_ends[live].sum())
        if seeded is not None and live.size <= seed.size:
            # No record outside the seed has a larger bound than one inside,
            # so the seed holds every live record, and its cells every cell
            # that reaches the floor.
            live, (col, t, total, dense) = seed, seeded
        else:
            col, t, total, dense = cells(live, floor)
        above = total[total >= floor]
        if above.size > k:
            above.partition(above.size - k)  # in place: the k-th best of the block is at size - k
            floor = max(floor, float(above[above.size - k]))
        keep = total >= floor
        row = live[col[keep]]
        kept.append((total[keep], dense[keep], sparse[row], blk[row], t[keep]))

    results = []
    if kept:
        score, dense, para_score, rec, offset = (np.concatenate(c) for c in zip(*kept))
        top = _top_k(score, k)
        rec = rec[top]
        end_row = index.rec_end_row[rec] + offset[top]
        para = index.rec_para[rec]
        for r, doc_ord, para_idx, i, j, total, dense_score, para_sparse in zip(
            rec.tolist(),
            index.para_doc[para].tolist(),
            index.para_table["para"][para].tolist(),
            index.rec_tok[rec].tolist(),
            index.end_tok[end_row].tolist(),
            score[top].tolist(),
            dense[top].tolist(),
            para_score[top].tolist(),
        ):
            ref = SpanRef(doc_id=index.doc_id(doc_ord), para_idx=para_idx, i=i, j=j)
            results.append(
                SearchResult(
                    text=index.span_text(ref),
                    span=ref,
                    score=total,
                    dense_score=dense_score,
                    sparse_score=para_sparse,
                    doc_title=index.doc_title(doc_ord),
                    strategy=label(r) if label else strategy,
                )
            )
    return SearchOutput(results, visited, strategy, len(recs), n_scored, n_expanded)


# ---------------------------------------------------------------------------
# Strategies: each one only chooses the start records to score
# ---------------------------------------------------------------------------


def _sfs_starts(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> tuple[np.ndarray, frozenset[int], np.ndarray]:
    """Start records of the top sparse documents, those documents, and the
    sparse score of every document (score_docs), which ranks the documents
    and is passed on to the kernel, so no posting is read twice."""
    doc_scores = score_docs(query.sparse, index.postings)
    ranked = retrieve_top_docs(
        query.sparse, index.postings, config.sparse_top_docs, scores=doc_scores
    )
    docs = np.array([d for d, _ in ranked], dtype=np.int64)
    docs.sort()
    begin = index.doc_rec_begin[docs]
    recs = _ranges(begin, index.doc_rec_begin[docs + 1] - begin)
    return recs, frozenset(docs.tolist()), doc_scores


def _dfs_starts(
    index: "PhraseIndex", ivf: "IvfIndex | None", query: QueryVector, config: SearchConfig
) -> np.ndarray:
    """Probe the IVF cells whose centroids score highest against the start
    query, and keep the best-scoring start rows found in them, ascending."""
    if ivf is None:
        raise ValueError("dense-first search needs an IVF, such as the index's own index.ivf")
    probe = _top_k(ivf.centroids @ query.dense.start, config.nprobe)
    begin = ivf.offsets[probe]
    cand_rows = np.sort(ivf.rows[_ranges(begin, ivf.offsets[probe + 1] - begin)])
    start_fold = _fold(index.start_quant, query.dense.start)
    start_logits = _code_logits(index.code_arrays()[0], cand_rows, start_fold)
    return np.sort(cand_rows[_top_k(start_logits, config.dense_top_starts)])


def _docs_of(index: "PhraseIndex", recs: np.ndarray) -> frozenset[int]:
    return frozenset(index.para_doc[index.rec_para[recs]].tolist())


def exact_search(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> SearchOutput:
    """Score every stored phrase; the oracle for all approximate strategies."""
    if index.n_phrases == 0:
        raise RuntimeError("empty index")
    return _score_starts(
        index, query, range(index.n_start_rows), config, frozenset(range(index.n_docs)), "exact"
    )


def sfs_search(
    index: "PhraseIndex", query: QueryVector, config: SearchConfig
) -> SearchOutput:
    """Sparse-first: exact scoring restricted to the top sparse documents."""
    recs, docs, doc_scores = _sfs_starts(index, query, config)
    return _score_starts(index, query, recs, config, docs, "sfs", doc_scores=doc_scores)


def dfs_search(
    index: "PhraseIndex",
    ivf: "IvfIndex | None",
    query: QueryVector,
    config: SearchConfig,
) -> SearchOutput:
    """Dense-first: probe IVF cells by start score, keep the best start rows,
    then expand each retrieved start over its surviving end window."""
    recs = _dfs_starts(index, ivf, query, config)
    return _score_starts(index, query, recs, config, _docs_of(index, recs), "dfs")


def hybrid_search(
    index: "PhraseIndex",
    ivf: "IvfIndex | None",
    query: QueryVector,
    config: SearchConfig,
) -> SearchOutput:
    """The union of the SFS and DFS start records, scored once. A result is
    labelled "sfs", "dfs" or "sfs+dfs" by the set(s) its start record is in.
    Both record arrays ascend without repeats, so the union is one merge and
    a membership test one searchsorted."""
    sfs_recs, sfs_docs, doc_scores = _sfs_starts(index, query, config)
    dfs_recs = _dfs_starts(index, ivf, query, config)
    recs = np.concatenate([sfs_recs, dfs_recs])
    recs.sort(kind="stable")
    recs = recs[np.diff(recs, prepend=-1) != 0]
    names = {(True, True): "sfs+dfs", (True, False): "sfs", (False, True): "dfs"}
    return _score_starts(
        index, query, recs, config, sfs_docs | _docs_of(index, dfs_recs), "hybrid",
        lambda r: names[_holds(sfs_recs, r), _holds(dfs_recs, r)], doc_scores,
    )


def _holds(recs: np.ndarray, r: int) -> bool:
    """Whether ascending recs holds r."""
    k = int(recs.searchsorted(r))
    return k < recs.size and int(recs[k]) == r


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
    """K-means centroids over start rows, and the rows of each cell as one
    CSR pair: cell c holds rows[offsets[c] : offsets[c + 1]], ascending."""

    centroids: np.ndarray  # (n_clusters, boundary_dim)
    offsets: np.ndarray  # int64 (n_clusters + 1,), from 0 to rows.size
    rows: np.ndarray  # int64 start row ids, grouped by cell


_ASSIGN_BLOCK = 1024  # most rows per distance block
_ASSIGN_BYTES = 4 << 20  # most bytes of an assignment's one (rows x cells) distance buffer
_TRAIN_PER_CELL = 64  # Lloyd trains on at most this many sampled rows per cell


def _assign(
    rows: np.ndarray, centroids: np.ndarray, quant: QuantizationParams | None = None
) -> np.ndarray:
    """Nearest centroid of each row, a block of rows at a time, in the dtype
    of the inputs; with quant, rows are int8 codes and each block is
    dequantized first. Every block's distances go into one buffer allocated
    once per call, of at most _ASSIGN_BLOCK rows and _ASSIGN_BYTES, so the
    scratch does not grow with the cell count. The squared Euclidean distance
    drops the ||row||^2 term, constant per row; scaling the centroids by -2
    is exact, so this matches -2 * (rows @ centroids.T) + ||c||^2."""
    from .index import dequantize  # deferred: index imports this module

    c2 = (centroids * centroids).sum(axis=1)
    scaled = -2.0 * centroids
    dtype = np.result_type(rows.dtype if quant is None else np.float64, centroids.dtype)
    step = max(1, min(_ASSIGN_BLOCK, _ASSIGN_BYTES // (centroids.shape[0] * dtype.itemsize)))
    d2 = np.empty((min(step, rows.shape[0]), centroids.shape[0]), dtype)
    out = np.empty(rows.shape[0], dtype=np.int64)
    for b in range(0, rows.shape[0], step):
        block = rows[b : b + step]
        dist = np.matmul(
            block if quant is None else dequantize(block, quant), scaled.T, out=d2[: block.shape[0]]
        )
        dist += c2
        np.argmin(dist, axis=1, out=out[b : b + step])
    return out


def _kmeanspp(rows: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Row ids of the k-means++ seeds. Each step draws from the squared distance
    to the nearest seed so far by the inverse CDF that
    `rng.choice(n, p=d2 / total)` uses, so it consumes the same random stream;
    a distance is one matvec against the precomputed row norms."""
    n = rows.shape[0]
    r2 = np.einsum("ij,ij->i", rows, rows)

    def dist2(i: int) -> np.ndarray:
        c = rows[i]
        return np.maximum(r2 - 2.0 * (rows @ c) + c @ c, 0.0)

    picks = np.empty(n_clusters, dtype=np.int64)
    picks[0] = rng.integers(n)
    d2 = dist2(picks[0])
    for t in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            picks[t] = np.argmax(d2)
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            picks[t] = cdf.searchsorted(rng.random(), side="right")
        np.minimum(d2, dist2(picks[t]), out=d2)
    return picks


def kmeans_train(
    rows: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    max_iter: int = 25,
    tol: float = 1e-4,
    quant: QuantizationParams | None = None,
) -> IvfIndex:
    """Train the IVF on a seeded sample of at most `_TRAIN_PER_CELL` rows per
    cell (all rows when there are no more): k-means++ seeds from the sample,
    then Lloyd iterations until the maximum centroid shift drops below tol or
    the iteration cap is reached. Lloyd assigns the sample in float32 and
    updates the float64 centroids from float64 sums; a cell left empty keeps
    its centroid. One float64 assignment of every row then gives the cells
    as a CSR pair: the stable sort of the rows by cell, so each cell's rows
    ascend, and the cell offsets, the running sum of the cell sizes.

    With quant, rows are int8 codes under those params, and the result is that
    of kmeans_train(dequantize(rows, quant), ...). The sample is dequantized
    whole only for the seeding. Lloyd then holds the sample's codes and a
    float32 copy filled a block at a time, and dequantizes one column at a
    time for the float64 sums (the same values in the same order, so the
    same bits); the final assignment dequantizes a block at a time."""
    from .index import QuantizationParams, dequantize  # deferred: index imports this module

    if quant is None:
        rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n_clusters > n:
        raise ValueError(f"n_clusters {n_clusters} exceeds row count {n}")
    rng = np.random.default_rng(seed)
    cap = _TRAIN_PER_CELL * n_clusters
    sample = rows[np.sort(rng.choice(n, cap, replace=False))] if n > cap else rows

    points = sample if quant is None else dequantize(sample, quant)
    if n_clusters == n:  # then n <= cap, so the sample is every row
        centroids = points.copy()
    else:
        centroids = points[_kmeanspp(points, n_clusters, rng)]
    if quant is None:
        sample32 = sample.astype(np.float32)
    else:
        del points  # the float64 sample serves only the seeding
        sample32 = np.empty(sample.shape, dtype=np.float32)
        for b in range(0, sample.shape[0], _ASSIGN_BLOCK):
            sample32[b : b + _ASSIGN_BLOCK] = dequantize(sample[b : b + _ASSIGN_BLOCK], quant)

    def column(j: int) -> np.ndarray:
        if quant is None:
            return sample[:, j]
        one = QuantizationParams(quant.minimums[j : j + 1], quant.scales[j : j + 1])
        return dequantize(sample[:, j], one)

    for _ in range(max_iter):
        assign = _assign(sample32, centroids.astype(np.float32))
        counts = np.bincount(assign, minlength=n_clusters)
        sums = np.stack(
            [
                np.bincount(assign, weights=column(j), minlength=n_clusters)
                for j in range(sample.shape[1])
            ],
            axis=1,
        )
        new_centroids = centroids.copy()
        filled = counts > 0
        new_centroids[filled] = sums[filled] / counts[filled, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    assign = _assign(rows, centroids, quant)
    offsets = np.append(0, np.cumsum(np.bincount(assign, minlength=n_clusters)))
    return IvfIndex(centroids=centroids, offsets=offsets, rows=np.argsort(assign, kind="stable"))
