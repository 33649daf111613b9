"""tf-idf model, sparse vectors, inverted index, and the learned sparse encoder."""

from collections import Counter

import numpy as np
import pytest

from oracles import brute_force_tfidf_weights as brute_force_tfidf
from phraseindex.corpus import CorpusStore, Document, Paragraph
from phraseindex.sparse import (
    InvertedIndex,
    LinearMap,
    SparseRows,
    SparseVector,
    TwoLayerMap,
    TfIdfModel,
    build_inverted_index,
    combine_doc_para,
    embed_text_sparse,
    fit_tfidf,
    idf_of_df,
    idf_of_dfs,
    learned_sparse_encode,
    ngram_bin,
    retrieve_top_docs,
    score_docs,
    sparse_score,
)


def make_corpus(texts: list[str]) -> CorpusStore:
    return CorpusStore(
        [
            Document(id=f"d{k}", title=f"t{k}", paragraphs=[Paragraph.from_text(t)])
            for k, t in enumerate(texts)
        ]
    )


class TestFitTfidf:
    def test_document_frequencies(self):
        model = fit_tfidf(make_corpus(["a b", "a c"]))
        assert model.doc_freq[ngram_bin("a")] == 2
        assert model.doc_freq[ngram_bin("b")] == 1
        assert model.doc_freq[ngram_bin("a b")] == 1

    def test_repeated_term_counts_df_once_but_tf_twice(self):
        corpus = make_corpus(["x x y", "a b c", "d e f"])
        model = fit_tfidf(corpus)
        assert model.doc_freq[ngram_bin("x")] == 1
        vec = embed_text_sparse(corpus.doc("d0"), model)
        weights = dict(zip(vec.bins.tolist(), vec.weights.tolist()))
        # tf("x") = 2 while tf("y") = 1 and both share the same idf.
        assert weights[ngram_bin("x")] == pytest.approx(2 * weights[ngram_bin("y")], rel=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            CorpusStore([])

    def test_hash_collisions_share_a_bin(self):
        # Find two distinct unigrams whose hashes collide in the bin space,
        # then confirm their counts land in one shared bin.
        seen: dict[int, str] = {}
        pair = None
        for k in range(200_000):
            word = f"tok{k}"
            b = ngram_bin(word)
            if b in seen:
                pair = (seen[b], word)
                break
            seen[b] = word
        assert pair is not None, "no collision found in search budget"
        model = fit_tfidf(make_corpus([f"{pair[0]} filler", f"{pair[1]} filler", "other words"]))
        assert model.doc_freq[ngram_bin(pair[0])] == 2  # both docs hit the shared bin


class TestEmbed:
    def test_unit_norm_or_empty(self):
        corpus = make_corpus(["a b c", "a d e", "f g h"])
        model = fit_tfidf(corpus)
        for doc in corpus:
            vec = embed_text_sparse(doc, model)
            assert vec.is_empty or abs(vec.norm() - 1.0) < 1e-6

    def test_term_in_every_doc_gets_zero_weight(self):
        corpus = make_corpus(["common x1 y1", "common x2 y2", "common x3 y3"])
        model = fit_tfidf(corpus)
        vec = embed_text_sparse(corpus.doc("d0"), model)
        assert ngram_bin("common") not in set(vec.bins.tolist())

    def test_empty_text_gives_empty_vector(self):
        corpus = make_corpus(["a b", "c d", "e f"])
        model = fit_tfidf(corpus)
        assert embed_text_sparse(Paragraph.from_text(""), model).is_empty

    def test_matches_brute_force_calculator(self):
        texts = ["red apple pie", "green apple tart", "red rose garden"]
        model = fit_tfidf(make_corpus(texts))
        vec = embed_text_sparse(Paragraph.from_text(texts[0]), model)
        expected = brute_force_tfidf(texts, texts[0])
        got = dict(zip(vec.bins.tolist(), vec.weights.tolist()))
        assert set(got) == set(expected)
        for b in expected:
            assert got[b] == pytest.approx(expected[b], abs=1e-12)

    def test_unigram_tf_order_invariant_but_bigrams_are_not(self):
        corpus = make_corpus(["p q r s", "t u v w", "x y z a"])
        model = fit_tfidf(corpus)
        fwd = embed_text_sparse(Paragraph.from_text("p q"), model)
        rev = embed_text_sparse(Paragraph.from_text("q p"), model)
        fwd_bins = set(fwd.bins.tolist())
        rev_bins = set(rev.bins.tolist())
        assert ngram_bin("p") in fwd_bins and ngram_bin("p") in rev_bins
        assert ngram_bin("q") in fwd_bins and ngram_bin("q") in rev_bins
        assert ngram_bin("p q") in fwd_bins and ngram_bin("p q") not in rev_bins
        assert ngram_bin("q p") in rev_bins and ngram_bin("q p") not in fwd_bins


def _per_bin_embed(model: TfIdfModel, counts: Counter):
    """TfIdfModel.embed one bin at a time: model.idf per bin, a bin kept when
    tf * idf is nonzero. Returns (bins, tfs, norm, weights)."""
    terms = [(b, tf, idf) for b, tf in sorted(counts.items()) if tf * (idf := model.idf(b))]
    bins = np.array([b for b, _, _ in terms], dtype=np.int64)
    tfs = np.array([tf for _, tf, _ in terms], dtype=np.int64)
    idfs = np.array([idf for _, _, idf in terms], dtype=np.float64)
    norm = float(np.linalg.norm(tfs * idfs))
    return bins, tfs, norm, (tfs * idfs) / norm if norm else np.empty(0)


def test_embed_equals_the_per_bin_idf_formula_bit_for_bit():
    # embed takes every bin's idf from one idf_of_dfs call and drops the
    # zero-weight bins with one mask. Its bins, term counts, norm, weights and
    # the terms it appends to SparseRows must be the bits of the per-bin
    # formula, over counters with idf-0 bins (df near or at N) and bins the
    # model has never seen (df 0).
    rng = np.random.default_rng(17)
    for trial in range(200):
        n_docs = int(rng.integers(1, 60))
        seen = rng.choice(1 << 20, size=40, replace=False)
        doc_freq = {int(b): int(rng.integers(1, n_docs + 1)) for b in seen}
        for b in seen[:5]:  # idf 0: in every document, or in more than half
            doc_freq[int(b)] = n_docs if rng.random() < 0.5 else (n_docs + 1) // 2
        model = TfIdfModel(doc_count=n_docs, doc_freq=doc_freq)
        unseen = rng.integers(1 << 20, 1 << 24, size=10)
        pool = np.concatenate([seen, unseen])
        picks = rng.choice(pool, size=int(rng.integers(0, 30)), replace=False)
        counts = Counter({int(b): int(rng.integers(1, 5)) for b in picks})
        bins, tfs, norm, weights = _per_bin_embed(model, counts)
        rows = SparseRows()
        vec = model.embed(counts, rows)
        assert rows.bins.tobytes() == bins.tobytes(), trial
        assert np.array_equal(rows.tfs, tfs), trial
        assert rows.norms.tobytes() == np.float64(norm).tobytes(), trial
        if norm == 0.0:
            assert vec.is_empty
        else:
            assert vec.bins.tobytes() == bins.tobytes(), trial
            assert vec.weights.tobytes() == weights.tobytes(), trial


@pytest.mark.parametrize("n_docs", [1, 7, 1000, 10**6])
def test_idf_of_dfs_is_idf_of_df_bit_for_bit(n_docs):
    # Fewer dfs than the largest df, and more, so that most repeat.
    rng = np.random.default_rng(n_docs)
    for size in (0, 1, 5, 50, 3000):
        dfs = rng.integers(0, n_docs + 1, size=size).tolist()
        want = np.array([idf_of_df(df, n_docs) for df in dfs], dtype=np.float64)
        got = idf_of_dfs(dfs, n_docs)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), size


class TestCombineAndScore:
    def test_combine_with_empty_paragraph(self):
        doc_vec = SparseVector(np.array([3, 9]), np.array([0.6, 0.8]))
        combined = combine_doc_para(doc_vec, SparseVector.empty())
        np.testing.assert_array_equal(combined.bins, doc_vec.bins)
        np.testing.assert_allclose(combined.weights, doc_vec.weights, atol=1e-12)

    def test_combine_equal_vectors_is_identity_after_renorm(self):
        vec = SparseVector(np.array([1, 5]), np.array([0.6, 0.8]))
        combined = combine_doc_para(vec, vec)
        np.testing.assert_allclose(combined.weights, vec.weights, atol=1e-12)

    def test_combine_disjoint_supports(self):
        a = SparseVector(np.array([1]), np.array([1.0]))
        b = SparseVector(np.array([2]), np.array([1.0]))
        combined = combine_doc_para(a, b)
        assert combined.bins.tolist() == [1, 2]
        np.testing.assert_allclose(combined.weights, [2 ** -0.5, 2 ** -0.5])

    def test_self_score_is_one(self):
        vec = SparseVector(np.array([2, 4, 8]), np.array([0.5, 0.5, 0.5]))
        unit = vec.normalized()
        assert sparse_score(unit, unit) == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_score_is_zero(self):
        a = SparseVector(np.array([1, 2]), np.array([0.7, 0.7]))
        b = SparseVector(np.array([3, 4]), np.array([0.7, 0.7]))
        assert sparse_score(a, b) == 0.0

    def test_score_matches_dense_dot(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            bins_a = np.sort(rng.choice(200, size=20, replace=False))
            bins_b = np.sort(rng.choice(200, size=25, replace=False))
            a = SparseVector(bins_a.astype(np.int64), rng.normal(size=20))
            b = SparseVector(bins_b.astype(np.int64), rng.normal(size=25))
            dense_a = np.zeros(200)
            dense_a[a.bins] = a.weights
            dense_b = np.zeros(200)
            dense_b[b.bins] = b.weights
            assert sparse_score(a, b) == pytest.approx(float(dense_a @ dense_b), abs=1e-9)


class TestRetrieveTopDocs:
    @staticmethod
    def _random_setup(rng, n_docs):
        texts = [
            " ".join(rng.choice([f"w{k}" for k in range(50)], size=int(rng.integers(5, 15))))
            for _ in range(n_docs)
        ]
        corpus = make_corpus(texts)
        model = fit_tfidf(corpus)
        doc_vecs = [embed_text_sparse(doc, model) for doc in corpus]
        return model, doc_vecs

    def test_k_at_least_corpus_returns_full_ordering(self):
        rng = np.random.default_rng(3)
        model, doc_vecs = self._random_setup(rng, 10)
        index = build_inverted_index(SparseRows(doc_vecs))
        query = doc_vecs[4]
        ranked = retrieve_top_docs(query, index, 50)
        assert len(ranked) == 10
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query_returns_nothing(self):
        index = build_inverted_index(SparseRows([SparseVector(np.array([1]), np.array([1.0]))]))
        assert retrieve_top_docs(SparseVector.empty(), index, 3) == []

    def test_matches_brute_force_top5(self):
        rng = np.random.default_rng(4)
        model, doc_vecs = self._random_setup(rng, 100)
        index = build_inverted_index(SparseRows(doc_vecs))
        # Postings hold the weights as float32, so the brute force reads them so too.
        posted = [SparseVector(v.bins, v.weights.astype(np.float32).astype(np.float64))
                  for v in doc_vecs]
        for probe in range(0, 100, 17):
            query = doc_vecs[probe]
            got = retrieve_top_docs(query, index, 5)
            brute = sorted(
                ((d, sparse_score(query, v)) for d, v in enumerate(posted)),
                key=lambda t: (-t[1], t[0]),
            )[:5]
            assert [d for d, _ in got] == [d for d, _ in brute]
            for (_, a), (_, b) in zip(got, brute):
                assert a == pytest.approx(b, abs=1e-9)

    def test_topk_is_prefix_of_full_ranking(self):
        rng = np.random.default_rng(5)
        model, doc_vecs = self._random_setup(rng, 60)
        index = build_inverted_index(SparseRows(doc_vecs))
        query = embed_text_sparse(Paragraph.from_text("w1 w2 w3 w4"), model)
        full = retrieve_top_docs(query, index, 60)
        for k in (1, 5, 20, 59):
            assert retrieve_top_docs(query, index, k) == full[:k]

    def test_rejects_bad_k(self):
        index = build_inverted_index(SparseRows([SparseVector(np.array([1]), np.array([1.0]))]))
        with pytest.raises(ValueError):
            retrieve_top_docs(SparseVector.empty(), index, 0)


def test_inverted_index_reconstruction_is_bit_exact():
    rng = np.random.default_rng(6)
    texts = [
        " ".join(rng.choice([f"w{k}" for k in range(30)], size=10)) for _ in range(40)
    ]
    corpus = make_corpus(texts)
    model = fit_tfidf(corpus)
    doc_vecs = [embed_text_sparse(doc, model) for doc in corpus]
    postings = build_inverted_index(SparseRows(doc_vecs))
    # Every entry of every document vector is posted with its own bits at
    # float32, and nothing else is.
    assert postings.docs.size == sum(v.bins.size for v in doc_vecs)
    for d, vec in enumerate(doc_vecs):
        for b, w in zip(vec.bins.tolist(), vec.weights.tolist()):
            docs, weights = postings[b]
            k = int(np.searchsorted(docs, d))
            assert docs[k] == d and weights[k] == np.float32(w)


def test_inverted_index_matches_per_entry_reference():
    rng = np.random.default_rng(7)
    doc_vecs = []
    for d in range(25):
        n = 0 if d % 6 == 0 else int(rng.integers(1, 12))  # some documents are empty
        bins = np.sort(rng.choice(40, size=n, replace=False)).astype(np.int64)
        doc_vecs.append(SparseVector(bins, rng.normal(size=n)))
    want: dict[int, tuple[list[int], list[float]]] = {}
    for d, vec in enumerate(doc_vecs):
        for b, w in zip(vec.bins.tolist(), vec.weights.tolist()):
            want.setdefault(b, ([], []))[0].append(d)
            want[b][1].append(w)
    index = build_inverted_index(SparseRows(doc_vecs))
    assert index.n_docs == 25
    assert sorted(index) == sorted(want)
    for b, (docs, weights) in want.items():
        got_docs, got_weights = index[b]
        assert got_docs.dtype == np.int64 and got_weights.dtype == np.float32
        assert got_docs.tolist() == docs
        assert got_weights.tolist() == np.array(weights, dtype=np.float32).tolist()
    empty = build_inverted_index(SparseRows([SparseVector.empty(), SparseVector.empty()]))
    assert empty.n_docs == 2 and empty == {}
    assert build_inverted_index(SparseRows([])) == {}


def _per_bin_score_docs(q: SparseVector, index) -> np.ndarray:
    """The per-bin loop score_docs replaced, kept as the reference."""
    scores = np.zeros(index.n_docs, dtype=np.float64)
    for b, w in zip(q.bins, q.weights):
        posting = index.get(int(b))
        if posting is not None:
            docs, weights = posting
            scores[docs] += w * weights
    return scores


def test_score_docs_matches_the_per_bin_loop():
    rng = np.random.default_rng(8)
    # Documents 0, 7 and the trailing 18-19 have no postings at all.
    doc_vecs = [
        SparseVector.empty() if d in (0, 7, 18, 19) else
        SparseVector(np.sort(rng.choice(30, size=8, replace=False)), rng.normal(size=8))
        for d in range(20)
    ]
    index = build_inverted_index(SparseRows(doc_vecs))
    no_postings = build_inverted_index(SparseRows([SparseVector.empty()] * 3))
    queries = [
        SparseVector.empty(),
        SparseVector(np.array([3]), np.array([1.0])),
        SparseVector(np.arange(0, 40, 3), rng.normal(size=14)),  # bins 30-39 have no postings
        SparseVector(np.array([35, 60]), np.array([0.5, 0.5])),  # no bin has postings
        SparseVector(np.arange(30), rng.normal(size=30)),
    ]
    for q in queries:
        for inv in (index, no_postings, build_inverted_index(SparseRows([]))):
            got = score_docs(q, inv)
            assert got.dtype == np.float64 and got.shape == (inv.n_docs,)
            assert np.array_equal(got, _per_bin_score_docs(q, inv))
    assert not score_docs(queries[-1], index)[[0, 7, 18, 19]].any()


def test_build_inverted_index_returns_csr_posting_lists():
    rng = np.random.default_rng(9)
    doc_vecs = [SparseVector(np.sort(rng.choice(20, size=5, replace=False)), rng.normal(size=5))
                for _ in range(6)]
    for vectors in (doc_vecs, [SparseVector.empty()], []):
        postings = build_inverted_index(SparseRows(vectors))
        assert isinstance(postings, InvertedIndex) and postings.n_docs == len(vectors)
        for name in ("bins", "offsets", "docs"):
            assert getattr(postings, name).dtype == np.int64
        assert postings.weights.dtype == np.float32
        assert postings.offsets.size == postings.bins.size + 1 and postings.offsets[0] == 0
        assert postings.offsets[-1] == postings.docs.size == postings.weights.size


class TestLearnedSparse:
    def test_zero_transforms_give_zero_output(self):
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(5, 4))
        zero = LinearMap(np.zeros((4, 4)))
        rows = learned_sparse_encode(dense, np.arange(5), 10, zero, zero)
        assert all(r.is_empty for r in rows)

    def test_hand_case_two_by_two(self):
        # Attention matrix [[1, -1], [0, 2]] becomes [[1, 0], [0, 2]] after the
        # ReLU; against one-hot words (0, 2) each row is a scaled one-hot.
        class Fixed:
            def __init__(self, m):
                self.m = m

            def __call__(self, x):
                return self.m

        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[1.0, 0.0], [-1.0, 2.0]])
        dense = np.zeros((2, 2))
        rows = learned_sparse_encode(dense, np.array([0, 2]), 3, Fixed(q), Fixed(k))
        assert rows[0].bins.tolist() == [0] and rows[0].weights.tolist() == [1.0]
        assert rows[1].bins.tolist() == [2] and rows[1].weights.tolist() == [2.0]

    def test_nonnegative_and_matches_dense_path(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            T, d, vocab = int(rng.integers(2, 8)), 4, 9
            dense = rng.normal(size=(T, d))
            ids = rng.integers(vocab, size=T)
            qm = LinearMap(rng.normal(size=(d, d)))
            km = TwoLayerMap(rng.normal(size=(6, d)), rng.normal(size=(d, 6)))
            rows = learned_sparse_encode(dense, ids, vocab, qm, km)
            one_hot = np.zeros((T, vocab))
            one_hot[np.arange(T), ids] = 1.0
            expected = np.maximum(qm(dense) @ km(dense).T, 0.0) @ one_hot
            for t, row in enumerate(rows):
                assert (row.weights >= 0).all()
                materialized = np.zeros(vocab)
                materialized[row.bins] = row.weights
                np.testing.assert_allclose(materialized, expected[t], atol=1e-6)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="shape"):
            learned_sparse_encode(dense, np.arange(4), 10, LinearMap(np.eye(4)), LinearMap(np.eye(4)))


def test_a_build_hashes_each_ngram_occurrence_once_per_pass(tmp_path, monkeypatch):
    # Nothing is cached on the paragraphs, so a build hashes every n-gram
    # occurrence exactly twice: once as it fits the tf-idf model's dfs, and
    # once as it takes each paragraph's counts, which serve its document's
    # embed and its own.
    import phraseindex.sparse as sparse_module
    from conftest import SMALL_CONFIG, make_random_corpus
    from phraseindex.dense import ToyEncoder
    from phraseindex.index import BuildConfig, build_index

    corpus = make_random_corpus(np.random.default_rng(5), n_docs=8, paras_per_doc=(1, 3))
    calls = []
    monkeypatch.setattr(sparse_module, "ngram_bin", lambda s: calls.append(s) or ngram_bin(s))
    build_index(corpus, ToyEncoder(SMALL_CONFIG), None, tmp_path / "idx", BuildConfig(max_span=3))
    hashed = Counter(calls)
    occurrences: Counter[str] = Counter()  # bigrams kept inside paragraphs
    for doc in corpus:
        want: Counter[int] = Counter()
        for p in doc.paragraphs:
            w = [t.surface.lower() for t in p.tokens]
            grams = w + [f"{a} {b}" for a, b in zip(w, w[1:])]
            occurrences.update(grams)
            want.update(map(ngram_bin, grams))
        # The counts match hashing each document afresh.
        assert sparse_module._doc_counts(doc) == want
    assert hashed == Counter({g: 2 * n for g, n in occurrences.items()})


def test_build_keeps_no_tokens_or_counts(tmp_path):
    from conftest import SMALL_CONFIG, make_random_corpus
    from phraseindex.dense import ToyEncoder
    from phraseindex.index import BuildConfig, build_index

    corpus = make_random_corpus(np.random.default_rng(6), n_docs=12, paras_per_doc=(1, 3))
    build_index(corpus, ToyEncoder(SMALL_CONFIG), None, tmp_path / "idx",
                BuildConfig(max_span=3, ivf_clusters=4))
    for _, _, _, para in corpus.iter_paragraphs():
        assert not {"tokens", "ngram_counts"} & vars(para).keys()


def test_build_memory_does_not_grow_by_a_token_object_per_token(tmp_path):
    # The traced peak of build_index, tf-idf fit included, 2k against 20k tokens. A
    # vocabulary of 60 words bounds the distinct n-grams (at most 3,660), so
    # the tf-idf table stops growing. What the build holds per token (masks,
    # codes, the documents' sparse vectors) reads ~77 B; keeping every
    # paragraph's Tokens and n-gram counts for the whole build read ~330 B.
    # Four IVF cells cap the k-means sample at 256 rows whatever the token
    # count; at the default cell count it would be every row of both builds.
    import tracemalloc

    from conftest import SMALL_CONFIG, make_random_corpus
    from phraseindex.dense import ToyEncoder
    from phraseindex.index import BuildConfig, build_index

    def traced_peak(n_docs: int, run: str) -> tuple[int, int]:
        corpus = make_random_corpus(
            np.random.default_rng(7), n_docs=n_docs, tokens_per_para=(100, 100), paras_per_doc=(2, 2)
        )
        encoder = ToyEncoder(SMALL_CONFIG)
        tracemalloc.start()
        try:
            build_index(corpus, encoder, None, tmp_path / run,
                        BuildConfig(ivf_clusters=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return corpus.total_tokens(), peak

    traced_peak(1, "warm")  # first-call allocations (imports, caches) are not the build's
    small_tokens, small_peak = traced_peak(10, "small")
    large_tokens, large_peak = traced_peak(100, "large")
    assert (small_tokens, large_tokens) == (2_000, 20_000)
    assert (large_peak - small_peak) / (large_tokens - small_tokens) < 100


@pytest.mark.parametrize("block", [1, 3, 7])
def test_posting_weights_do_not_depend_on_the_weighting_block(monkeypatch, block):
    # posting_lists weights a block of postings at a time; blocks that split
    # posting lists anywhere must give the same bits.
    import phraseindex.sparse as sparse_module

    rng = np.random.default_rng(10)
    doc_vecs = [SparseVector(np.sort(rng.choice(12, size=4, replace=False)), rng.normal(size=4))
                for _ in range(9)]
    want = build_inverted_index(SparseRows(doc_vecs)).weights
    monkeypatch.setattr(sparse_module, "_WEIGHT_BLOCK", block)
    got = build_inverted_index(SparseRows(doc_vecs)).weights
    assert want.size == 36 and got.tobytes() == want.tobytes()
