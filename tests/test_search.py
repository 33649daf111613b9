"""Search strategies: exact oracle behavior, SFS/DFS/hybrid, k-means IVF."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import phraseindex.search as search_module
import phraseindex.sparse as sparse_module
from conftest import SMALL_CONFIG, build_small_index, make_random_corpus
from phraseindex.corpus import CorpusStore, Document, Paragraph, SpanRef, tokenize
from phraseindex.dense import EncoderConfig, QueryDenseVector, ToyEncoder, question_dense
from phraseindex.index import BuildConfig, dequantize, fit_quantization, load_index, quantize
from phraseindex.search import (
    STRATEGIES,
    QueryVector,
    SearchConfig,
    _ASSIGN_BLOCK,
    _BLOCK,
    _assign,
    _code_bounds,
    _code_logits,
    _end_ranges,
    _fold,
    _fold32,
    _para_sparse,
    _ranges,
    _record_bounds,
    _window_max,
    dfs_search,
    embed_question,
    exact_search,
    hybrid_search,
    kmeans_train,
    phrase_coherency,
    run_search,
    sfs_search,
)
from phraseindex.sparse import SparseVector, TfIdfModel, fit_tfidf, sparse_score
from phraseindex.training import FilterModel


@pytest.fixture(scope="module")
def random_index(tmp_path_factory):
    rng = np.random.default_rng(42)
    corpus = make_random_corpus(rng, n_docs=12, tokens_per_para=(8, 20))
    index = build_small_index(
        corpus, tmp_path_factory.mktemp("search") / "idx", max_span=3, ivf_clusters=6
    )
    return index


@pytest.fixture(scope="module")
def filtered_index(tmp_path_factory):
    # About 40% of end tokens survive, so with a short max_span about a
    # quarter of the start records keep no end at all.
    rng = np.random.default_rng(8)
    corpus = make_random_corpus(rng, n_docs=10, tokens_per_para=(8, 20))
    w = rng.normal(size=SMALL_CONFIG.boundary_dim)
    model = FilterModel(w, 0.3, -w, 0.0, threshold=0.5)
    return build_small_index(
        corpus, tmp_path_factory.mktemp("filtered") / "idx", max_span=3, ivf_clusters=4,
        filter_model=model,
    )


@pytest.fixture(scope="module")
def gapped_index(tmp_path_factory):
    # Every end token survives and about one start token in five, so a
    # record's end rows often begin past the previous record's stop.
    rng = np.random.default_rng(9)
    corpus = make_random_corpus(rng, n_docs=6, tokens_per_para=(8, 20))
    w = rng.normal(size=SMALL_CONFIG.boundary_dim)
    model = FilterModel(w, -0.2, np.zeros_like(w), 1.0, threshold=0.5)
    return build_small_index(
        corpus, tmp_path_factory.mktemp("gapped") / "idx", max_span=3, ivf_clusters=4,
        filter_model=model,
    )


def spans_and_scores(output):
    return [(r.span, round(r.score, 9)) for r in output.results]


def cell_lists(ivf):
    """Each cell's start rows, read from the IVF's CSR pair."""
    return [ivf.rows[a:b] for a, b in zip(ivf.offsets[:-1], ivf.offsets[1:])]


class TestKmeans:
    def test_each_row_its_own_centroid(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(7, 4))
        ivf = kmeans_train(rows, 7, seed=1)
        assigned = np.concatenate(cell_lists(ivf))
        assert sorted(assigned.tolist()) == list(range(7))
        inertia = 0.0
        for c, members in enumerate(cell_lists(ivf)):
            for r in members:
                inertia += float(((rows[r] - ivf.centroids[c]) ** 2).sum())
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(size=(30, 3)) + np.array([10.0, 0, 0])
        blob_b = rng.normal(size=(30, 3)) - np.array([10.0, 0, 0])
        rows = np.vstack([blob_a, blob_b])
        ivf = kmeans_train(rows, 2, seed=2)
        groups = [set(lst.tolist()) for lst in cell_lists(ivf)]
        assert {frozenset(range(30)), frozenset(range(30, 60))} == {
            frozenset(g) for g in groups
        }

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(50, 4))
        a = kmeans_train(rows, 5, seed=9)
        b = kmeans_train(rows, 5, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for la, lb in zip(cell_lists(a), cell_lists(b)):
            np.testing.assert_array_equal(la, lb)

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans_train(np.zeros((3, 2)), 4)

    def test_assignment_complete_and_disjoint(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 3))
        ivf = kmeans_train(rows, 6, seed=0)
        assigned = np.concatenate(cell_lists(ivf))
        assert sorted(assigned.tolist()) == list(range(40))

    def test_blocked_assign_equals_one_matrix(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(2 * _ASSIGN_BLOCK + 37, 5))
        centroids = rng.normal(size=(23, 5))
        d2 = -2.0 * (rows @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
        assert np.array_equal(_assign(rows, centroids), np.argmin(d2, axis=1))

    @pytest.mark.parametrize("kind", ["float64", "float32", "codes"])
    def test_assign_holds_one_distance_block(self, kind):
        # Every block's distances go into one buffer allocated once per call,
        # so a multi-block assignment's traced peak is one distance block, one
        # row block and the result, plus small transients (numpy's 8192-item
        # ufunc buffer, the scaled centroids): never two distance blocks.
        rng = np.random.default_rng(10)
        cells, d = 512, 4  # 512 float64 cells: the byte budget holds 1024 rows
        rows = rng.normal(size=(3 * _ASSIGN_BLOCK + 5, d))
        centroids = rng.normal(size=(cells, d))
        quant = None
        if kind == "float32":
            rows, centroids = rows.astype(np.float32), centroids.astype(np.float32)
        elif kind == "codes":
            quant = fit_quantization(rows)
            rows = quantize(rows, quant)
        floats = rows if quant is None else dequantize(rows, quant)
        c2 = (centroids * centroids).sum(axis=1)
        want = np.argmin((-2.0 * floats) @ centroids.T + c2, axis=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = _assign(rows, centroids, quant)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        item = np.dtype(np.float32 if kind == "float32" else np.float64).itemsize
        distances = _ASSIGN_BLOCK * cells * item
        row_block = _ASSIGN_BLOCK * d * max(item, rows.itemsize)
        assert peak <= distances + row_block + got.nbytes + (128 << 10)

    @pytest.mark.parametrize("kind", ["float64", "float32", "codes"])
    def test_byte_budget_blocks_assign_as_1024_row_blocks(self, kind):
        # 2000 cells: 4 MB of distances holds 262 float64 rows (524 float32).
        rng = np.random.default_rng(11)
        cells = 2000
        rows = rng.normal(size=(2 * _ASSIGN_BLOCK + 37, 5))
        centroids = rng.normal(size=(cells, 5))
        quant = None
        if kind == "float32":
            rows, centroids = rows.astype(np.float32), centroids.astype(np.float32)
        elif kind == "codes":
            quant = fit_quantization(rows)
            rows = quantize(rows, quant)
        assert search_module._ASSIGN_BYTES // (cells * centroids.itemsize) < _ASSIGN_BLOCK
        c2 = (centroids * centroids).sum(axis=1)
        want = []
        for b in range(0, rows.shape[0], _ASSIGN_BLOCK):
            block = rows[b : b + _ASSIGN_BLOCK]
            block = block if quant is None else dequantize(block, quant)
            want.append(np.argmin((-2.0 * block) @ centroids.T + c2, axis=1))
        assert np.array_equal(_assign(rows, centroids, quant), np.concatenate(want))

    def test_lists_are_the_cells_of_the_final_assignment(self):
        rng = np.random.default_rng(5)
        rows = np.vstack([rng.normal(size=(1500, 4)), np.zeros((3, 4))])  # a few duplicate rows
        ivf = kmeans_train(rows, 40, seed=3)
        assign = _assign(rows, ivf.centroids)
        assert len(cell_lists(ivf)) == 40
        for c, members in enumerate(cell_lists(ivf)):
            assert members.dtype == np.int64
            assert np.array_equal(members, np.flatnonzero(assign == c))

    def test_seeding_picks_match_rng_choice(self):
        # Rows on a coarse grid: squared distances are small integers, exact in
        # either form, so no draw can fall on a rounding difference.
        rng = np.random.default_rng(6)
        rows = rng.integers(-20, 21, size=(300, 3)).astype(np.float64)
        k = 12

        def reference_picks(seed):
            ref = np.random.default_rng(seed)
            n = rows.shape[0]
            picks = [int(ref.integers(n))]
            d2 = ((rows - rows[picks[0]]) ** 2).sum(axis=1)
            for _ in range(1, k):
                total = float(d2.sum())
                idx = int(np.argmax(d2)) if total <= 0.0 else int(ref.choice(n, p=d2 / total))
                picks.append(idx)
                d2 = np.minimum(d2, ((rows - rows[idx]) ** 2).sum(axis=1))
            return picks

        for seed in range(5):
            ivf = kmeans_train(rows, k, seed=seed, max_iter=0)
            np.testing.assert_array_equal(ivf.centroids, rows[reference_picks(seed)])

    def test_training_sample_is_capped_per_cell(self, monkeypatch):
        rng = np.random.default_rng(7)
        k = 5
        n = 3 * search_module._TRAIN_PER_CELL * k + 11
        rows = rng.normal(size=(n, 4))
        seen = []

        def recording_assign(x, centroids, quant=None):
            seen.append((x.shape[0], x.dtype))
            return _assign(x, centroids, quant)

        monkeypatch.setattr(search_module, "_assign", recording_assign)
        a = kmeans_train(rows, k, seed=4)
        assert len(seen) >= 2
        for count, dtype in seen[:-1]:
            assert count <= search_module._TRAIN_PER_CELL * k
            assert dtype == np.float32
        assert seen[-1] == (n, np.float64)
        assert sorted(np.concatenate(cell_lists(a)).tolist()) == list(range(n))

        b = kmeans_train(rows, k, seed=4)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for la, lb in zip(cell_lists(a), cell_lists(b)):
            np.testing.assert_array_equal(la, lb)

    @pytest.mark.parametrize("k", [3, 7], ids=["sampled", "one_cell_per_row"])
    def test_codes_train_as_their_dequantized_rows(self, k):
        # With quant, kmeans_train dequantizes the sample whole and the final
        # assignment a block at a time; both must give the bits of the float64
        # rows. "sampled" has more rows than the Lloyd sample and than one block.
        rng = np.random.default_rng(8)
        n = 2 * _ASSIGN_BLOCK + 5 if k == 3 else k
        assert n > search_module._TRAIN_PER_CELL * k or n == k
        rows = rng.normal(size=(n, 5))
        quant = fit_quantization(rows)
        codes = quantize(rows, quant)
        got = kmeans_train(codes, k, seed=6, quant=quant)
        want = kmeans_train(dequantize(codes, quant), k, seed=6)
        assert np.array_equal(got.centroids, want.centroids)
        assert len(cell_lists(got)) == len(cell_lists(want)) == k
        for lg, lw in zip(cell_lists(got), cell_lists(want)):
            assert np.array_equal(lg, lw)


    def test_quantized_lloyd_holds_no_float64_sample(self, monkeypatch):
        # With quant, dequantize sees the whole sample in one call once, for
        # the seeding. Lloyd then holds the sample's codes and a float32 copy,
        # and dequantizes a column or a block at a time: no iteration holds or
        # allocates a float64 array the size of the sample.
        import phraseindex.index as index_module

        rng = np.random.default_rng(9)
        k, d = 20, 32
        m = search_module._TRAIN_PER_CELL * k  # the Lloyd sample's rows
        assert m > _ASSIGN_BLOCK  # so the sample's blocks are smaller than the sample
        rows = rng.normal(size=(3 * m, d))
        quant = fit_quantization(rows)
        codes = quantize(rows, quant)
        want = kmeans_train(dequantize(codes, quant), k, seed=3)
        shapes = []

        def recording_dequantize(x, params):
            shapes.append(x.shape)
            return dequantize(x, params)

        lloyd = []  # (traced bytes, traced peak since the previous Lloyd assignment)

        def recording_assign(x, centroids, quant=None):
            if quant is None:
                lloyd.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
            return _assign(x, centroids, quant)

        monkeypatch.setattr(index_module, "dequantize", recording_dequantize)
        monkeypatch.setattr(search_module, "_assign", recording_assign)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = kmeans_train(codes, k, seed=3, quant=quant)
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.centroids, want.centroids)
        assert shapes.count((m, d)) == 1
        assert all(s == (m, d) or s == (m,) or s[0] <= _ASSIGN_BLOCK for s in shapes)
        sample64 = m * d * 8
        assert len(lloyd) >= 2
        assert all(now - base < sample64 for now, _ in lloyd)
        assert all(peak - before < sample64 for (before, _), (_, peak) in zip(lloyd, lloyd[1:]))

class TestExactSearch:
    def test_single_phrase_index(self, tmp_path):
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("only")])])
        index = build_small_index(corpus, tmp_path / "idx", max_span=2)
        q = embed_question(index, "anything at all")
        out = exact_search(index, q, SearchConfig(strategy="exact", top_k=3))
        assert len(out.results) == 1
        assert out.results[0].span.i == 0 and out.results[0].span.j == 0

    def test_self_aligned_query_wins(self, tmp_path):
        # Distinct random unit token vectors (via the precomputed import
        # path): aligning the query with one stored phrase makes that phrase
        # the strict inner-product argmax.
        rng = np.random.default_rng(99)
        corpus = make_random_corpus(rng, n_docs=4, tokens_per_para=(10, 14), paras_per_doc=(1, 1))
        from phraseindex.dense import PrecomputedEncoder, QueryDenseVector, write_embedding_file

        b = SMALL_CONFIG.boundary_dim
        records = {}
        for _, doc, pidx, para in corpus.iter_paragraphs():
            rows = rng.normal(size=(para.n_tokens, SMALL_CONFIG.dim))
            rows[:, :b] /= np.linalg.norm(rows[:, :b], axis=1, keepdims=True)
            rows[:, b : 2 * b] /= np.linalg.norm(rows[:, b : 2 * b], axis=1, keepdims=True)
            records[f"{doc.id}/{pidx}"] = rows
        emb = tmp_path / "rows.bin"
        write_embedding_file(emb, records, SMALL_CONFIG.dim)
        encoder = PrecomputedEncoder(emb, SMALL_CONFIG)
        index = build_small_index(corpus, tmp_path / "idx", max_span=3, encoder=encoder,
                                  ivf_clusters=4)

        rec_id = 7
        end_row = int(index.rec_end_row[rec_id])  # the record's first phrase
        a_hat = index.dequant_start_rows(np.array([rec_id]))[0]
        b_hat = index.dequant_end_rows(np.array([end_row]))[0]
        q = QueryVector(
            dense=QueryDenseVector(start=20 * a_hat, end=20 * b_hat, coherency=0.0),
            sparse=SparseVector.empty(),
        )
        out = exact_search(index, q, SearchConfig(strategy="exact", top_k=1))
        top = out.results[0]
        doc = int(index.para_table["doc"][index.rec_para[rec_id]])
        assert index.corpus.ordinal(top.span.doc_id) == doc
        assert top.span.i == int(index.rec_tok[rec_id])
        assert top.span.j == int(index.end_tok[end_row])

    def test_visits_every_document(self, random_index):
        q = embed_question(random_index, "w001 w002 w003")
        out = exact_search(random_index, q, SearchConfig(strategy="exact"))
        assert out.docs_visited == random_index.n_docs

    def test_total_is_dense_plus_scaled_sparse(self, random_index):
        q = embed_question(random_index, "w004 w009")
        cfg = SearchConfig(strategy="exact", top_k=10, sparse_scale=0.05)
        for r in exact_search(random_index, q, cfg).results:
            assert r.score == pytest.approx(r.dense_score + 0.05 * r.sparse_score, abs=1e-6)


class TestSfsSearch:
    def test_full_doc_budget_equals_exact(self, random_index):
        q = embed_question(random_index, "w010 w011 w012")
        exact = exact_search(random_index, q, SearchConfig(strategy="exact", top_k=10))
        sfs = sfs_search(
            random_index, q,
            SearchConfig(strategy="sfs", top_k=10, sparse_top_docs=random_index.n_docs),
        )
        assert spans_and_scores(sfs) == spans_and_scores(exact)

    def test_answer_doc_without_shared_terms_is_missed(self, tmp_path):
        # Documents d0/d1 share vocabulary with the query; the planted answer
        # doc uses disjoint vocabulary, so a 1-document sparse budget skips it.
        corpus = CorpusStore(
            [
                Document("d0", "A", [Paragraph.from_text("shared words here alpha")]),
                Document("d1", "B", [Paragraph.from_text("shared words there beta")]),
                Document("d2", "C", [Paragraph.from_text("filler one two three")]),
                Document("d3", "D", [Paragraph.from_text("filler four five six")]),
                Document("d4", "E", [Paragraph.from_text("unrelated vocabulary entirely gamma")]),
            ]
        )
        index = build_small_index(corpus, tmp_path / "idx", max_span=2, ivf_clusters=2)
        q = embed_question(index, "shared words")
        assert not q.sparse.is_empty
        out = sfs_search(index, q, SearchConfig(strategy="sfs", top_k=5, sparse_top_docs=1))
        assert out.docs_visited == 1
        assert all(r.span.doc_id != "d4" for r in out.results)

    def test_restricted_enumeration_matches(self, random_index):
        q = embed_question(random_index, "w001 w005 w009")
        cfg = SearchConfig(strategy="sfs", top_k=50, sparse_top_docs=5)
        out = sfs_search(random_index, q, cfg)
        allowed = out.visited_doc_ordinals
        exact = exact_search(random_index, q, SearchConfig(strategy="exact", top_k=10 ** 6))
        expected = [
            r for r in exact.results
            if random_index.corpus.ordinal(r.span.doc_id) in allowed
        ][:50]
        assert [(r.span, r.score) for r in out.results] == [
            (r.span, r.score) for r in expected
        ]

    def test_empty_sparse_query_returns_nothing(self, random_index):
        from phraseindex.dense import QueryDenseVector

        b = SMALL_CONFIG.boundary_dim
        q = QueryVector(
            dense=QueryDenseVector(np.ones(b), np.ones(b), 0.0),
            sparse=SparseVector.empty(),
        )
        out = sfs_search(random_index, q, SearchConfig(strategy="sfs"))
        assert out.results == [] and out.docs_visited == 0


class TestDfsSearch:
    def test_exhaustive_limit_equals_exact(self, random_index):
        q = embed_question(random_index, "w014 w015")
        exact = exact_search(random_index, q, SearchConfig(strategy="exact", top_k=10))
        n_clusters = random_index.ivf.centroids.shape[0]
        dfs = dfs_search(
            random_index, random_index.ivf, q,
            SearchConfig(
                strategy="dfs", top_k=10, nprobe=n_clusters,
                dense_top_starts=random_index.n_start_rows,
            ),
        )
        assert spans_and_scores(dfs) == spans_and_scores(exact)

    def test_dominant_start_row_is_retrieved(self, random_index):
        index = random_index
        rec_id = 5
        a_hat = index.dequant_start_rows(np.array([rec_id]))[0]
        from phraseindex.dense import QueryDenseVector

        q = QueryVector(
            dense=QueryDenseVector(start=50 * a_hat, end=np.zeros_like(a_hat), coherency=0.0),
            sparse=SparseVector.empty(),
        )
        out = dfs_search(
            index, index.ivf, q,
            SearchConfig(strategy="dfs", top_k=5, nprobe=index.ivf.centroids.shape[0],
                         dense_top_starts=1),
        )
        doc = int(index.para_table["doc"][index.rec_para[rec_id]])
        assert any(
            index.corpus.ordinal(r.span.doc_id) == doc and r.span.i == int(index.rec_tok[rec_id])
            for r in out.results
        )

    def test_missing_ivf_is_an_error(self, random_index):
        q = embed_question(random_index, "w001")
        with pytest.raises(ValueError, match="ivf"):
            dfs_search(random_index, None, q, SearchConfig(strategy="dfs"))

    def test_scaled_down_recall_reported(self, random_index):
        # Recall against the exact oracle is measured and reported; only the
        # exhaustive limit asserts recall 1.0 (covered above).
        hits = 0
        queries = [f"w{k:03d} w{k + 1:03d}" for k in range(0, 20, 2)]
        for text in queries:
            q = embed_question(random_index, text)
            exact = exact_search(random_index, q, SearchConfig(strategy="exact", top_k=1))
            dfs = dfs_search(
                random_index, random_index.ivf, q,
                SearchConfig(strategy="dfs", top_k=1, nprobe=2, dense_top_starts=20),
            )
            if dfs.results and dfs.results[0].span == exact.results[0].span:
                hits += 1
        recall = hits / len(queries)
        print(f"dfs recall@1 at nprobe=2, k_d=20: {recall:.2f}")
        assert 0.0 <= recall <= 1.0


class TestHybridSearch:
    def test_dedup_and_dominance(self, random_index):
        cfg = SearchConfig(strategy="hybrid", top_k=10, sparse_top_docs=3,
                           dense_top_starts=30, nprobe=2)
        for text in ["w003 w007", "w021 w022 w023", "w040 w041"]:
            q = embed_question(random_index, text)
            hybrid = hybrid_search(random_index, random_index.ivf, q, cfg)
            spans = [r.span for r in hybrid.results]
            assert len(spans) == len(set(spans))
            sfs = sfs_search(random_index, q, cfg)
            dfs = dfs_search(random_index, random_index.ivf, q, cfg)
            for sub in (sfs, dfs):
                if sub.results:
                    assert hybrid.results[0].score >= sub.results[0].score - 1e-12

    def test_hybrid_scores_match_exact(self, random_index):
        q = embed_question(random_index, "w031 w033")
        cfg = SearchConfig(strategy="hybrid", top_k=5, sparse_top_docs=4,
                           dense_top_starts=50, nprobe=3)
        hybrid = hybrid_search(random_index, random_index.ivf, q, cfg)
        exact = exact_search(random_index, q, SearchConfig(strategy="exact", top_k=10 ** 6))
        exact_by_span = {r.span: r.score for r in exact.results}
        for r in hybrid.results:
            assert r.score == pytest.approx(exact_by_span[r.span], abs=1e-6)

    def test_labels_match_sfs_and_dfs_membership(self, random_index):
        # A hybrid result is labelled by which of the SFS and DFS result
        # lists, under the same config, contain its span.
        names = {(True, True): "sfs+dfs", (True, False): "sfs", (False, True): "dfs"}
        seen = set()
        for k, text in enumerate(["w003 w007", "w021 w022 w023", "w040 w041", "w011 w013"]):
            q = embed_question(random_index, text)
            cfg = SearchConfig(strategy="hybrid", top_k=15, sparse_top_docs=2 + k,
                               dense_top_starts=10 + 10 * k, nprobe=1 + k % 3)
            hybrid = hybrid_search(random_index, random_index.ivf, q, cfg)
            sfs_spans = {r.span for r in sfs_search(random_index, q, cfg).results}
            dfs_spans = {r.span for r in dfs_search(random_index, random_index.ivf, q, cfg).results}
            for r in hybrid.results:
                assert r.strategy == names[r.span in sfs_spans, r.span in dfs_spans]
                seen.add(r.strategy)
        assert len(seen) >= 2

    def test_visited_docs_is_the_union(self, random_index):
        q = embed_question(random_index, "w011 w013")
        cfg = SearchConfig(strategy="hybrid", top_k=5, sparse_top_docs=3,
                           dense_top_starts=20, nprobe=2)
        hybrid = hybrid_search(random_index, random_index.ivf, q, cfg)
        sfs = sfs_search(random_index, q, cfg)
        dfs = dfs_search(random_index, random_index.ivf, q, cfg)
        assert hybrid.visited_doc_ordinals == sfs.visited_doc_ordinals | dfs.visited_doc_ordinals


class TestMonotonicityAndDeterminism:
    def test_enlarging_budgets_never_lowers_top1(self, random_index):
        q = embed_question(random_index, "w018 w019 w020")
        base = SearchConfig(strategy="hybrid", top_k=1, sparse_top_docs=2,
                            dense_top_starts=10, nprobe=1)
        doubled = SearchConfig(strategy="hybrid", top_k=1, sparse_top_docs=4,
                               dense_top_starts=20, nprobe=2)
        lo = hybrid_search(random_index, random_index.ivf, q, base)
        hi = hybrid_search(random_index, random_index.ivf, q, doubled)
        assert hi.results[0].score >= lo.results[0].score - 1e-12

    def test_sparse_scale_zero_ignores_sparse_model(self, random_index, tmp_path):
        # Swap in a query with a completely different sparse vector: with
        # sparse_scale = 0 the exact and dense-first outputs must not change.
        q1 = embed_question(random_index, "w001 w002")
        q2 = QueryVector(dense=q1.dense, sparse=SparseVector(np.array([123]), np.array([1.0])))
        cfg = SearchConfig(strategy="exact", top_k=10, sparse_scale=0.0)
        assert spans_and_scores(exact_search(random_index, q1, cfg)) == spans_and_scores(
            exact_search(random_index, q2, cfg)
        )
        cfg_dfs = SearchConfig(strategy="dfs", top_k=10, sparse_scale=0.0,
                               nprobe=3, dense_top_starts=40)
        a = dfs_search(random_index, random_index.ivf, q1, cfg_dfs)
        b = dfs_search(random_index, random_index.ivf, q2, cfg_dfs)
        assert spans_and_scores(a) == spans_and_scores(b)

    def test_repeat_runs_identical(self, random_index):
        q = embed_question(random_index, "w007 w008")
        cfg = SearchConfig(strategy="hybrid", top_k=8, sparse_top_docs=3,
                           dense_top_starts=25, nprobe=2)
        runs = [hybrid_search(random_index, random_index.ivf, q, cfg) for _ in range(3)]
        first = spans_and_scores(runs[0])
        assert all(spans_and_scores(r) == first for r in runs[1:])


def test_code_logits_same_bits_in_any_subset(random_index):
    # A phrase's score must not depend on which other rows are scored with
    # it, or the exhaustive-limit strategies would match exact only by luck.
    # The raw code table spans several blocks and holds both extreme codes.
    from phraseindex.index import dequantize, fit_quantization

    rng = np.random.default_rng(7)
    d = SMALL_CONFIG.boundary_dim
    table = rng.integers(-128, 128, size=(5000, d), dtype=np.int8)
    table[0], table[1] = -128, 127
    quant = fit_quantization(rng.normal(size=(50, d)) * rng.uniform(0.1, 3.0, size=d))
    for codes, params, n_rows in [(table, quant, table.shape[0]),
                                  (random_index.start_codes, random_index.start_quant,
                                   random_index.n_start_rows)]:
        q = rng.normal(size=d)
        fold = _fold(params, q)
        full = _code_logits(codes, np.arange(n_rows), fold)
        # The folded map is the dequantized inner product, up to rounding.
        want = np.einsum("ij,j->i", dequantize(np.asarray(codes), params), q)
        assert np.allclose(full, want, rtol=0, atol=1e-12 * np.abs(want).max())
        for n in [1, 1, 2, 3, *rng.integers(1, n_rows, size=40)]:
            subset = np.sort(rng.choice(n_rows, size=int(n), replace=False))
            assert np.array_equal(_code_logits(codes, subset, fold), full[subset])


def test_float32_bound_is_at_least_the_float64_logit_on_every_row():
    # _code_bounds must never fall below _code_logits, or the kernel could
    # rule out a record that float64 bounds keep. Adversarial rows hold only
    # extreme codes, all of one sign or following the weights' signs, and the
    # weights mix signs over six decades.
    rng = np.random.default_rng(11)
    d = SMALL_CONFIG.boundary_dim
    random_codes = rng.integers(-128, 128, size=(3000, d), dtype=np.int8)
    for trial in range(60):
        w = rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(-3, 3, size=d)
        if trial % 3 == 0:
            w = rng.normal(size=d)
        signs = np.where(w > 0, 127, -128).astype(np.int8)
        extreme = np.stack([np.full(d, -128), np.full(d, 127), signs, -1 - signs,
                            np.where(np.arange(d) % 2, 127, -128)]).astype(np.int8)
        codes = np.concatenate([extreme, random_codes])
        c0 = float(rng.choice([0.0, 1e-3, -7.5, 1e4, -1e6])) * rng.uniform(0.5, 2)
        fold = (c0, w)
        fold32 = _fold32(fold)
        margin = fold32[2]
        assert 0 < margin < 1e-5 * (128 * np.abs(w).sum() + abs(c0))  # small, so it prunes
        for rows in (np.arange(codes.shape[0]), range(0, codes.shape[0]),
                     np.sort(rng.choice(codes.shape[0], size=200, replace=False))):
            logits = _code_logits(codes, rows, fold)
            bounds = _code_bounds(codes, rows, fold32)
            assert (bounds >= logits).all(), trial
            assert (bounds - logits <= 1.5 * margin).all(), trial
        # A range of rows is read through a slice, with the bits of an array of them.
        assert np.array_equal(_code_logits(codes, range(5, 905), fold),
                              _code_logits(codes, np.arange(5, 905), fold))


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_float32_pruning_changes_no_result(fixture, request, monkeypatch):
    # With an infinite margin every record reaches the floor, so nothing is
    # ruled out by a float32 bound. The results must be the same bits as with
    # the proven margin, over many small blocks. The filtered index has
    # records without ends, whose window reads must not meet an inf bound.
    index = request.getfixturevalue(fixture)
    monkeypatch.setattr(search_module, "_BLOCK", 16)
    queries = [embed_question(index, text) for text in ("w001 w002", "w010 w011 w012", "w030")]

    def run_all():
        out = []
        for q in queries:
            for strategy in STRATEGIES:
                for k in (1, 10):
                    cfg = SearchConfig(strategy=strategy, top_k=k, dense_top_starts=200)
                    o = run_search(index, q, cfg)
                    bits = [(r.span, r.score.hex(), r.dense_score.hex(), r.sparse_score.hex(),
                             r.strategy) for r in o.results]
                    out.append((bits, o.docs_visited, o.start_rows_scored, o.phrases_scored,
                                o.phrases_expanded))
        return out

    proven = run_all()
    monkeypatch.setattr(search_module, "_bound_margin", lambda c0, w: float("inf"))
    unpruned = run_all()
    assert [p[:4] for p in proven] == [u[:4] for u in unpruned]
    assert all(p[4] <= u[4] for p, u in zip(proven, unpruned))
    assert sum(p[4] for p in proven) < sum(u[4] for u in unpruned)  # the float32 bound prunes


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index", "gapped_index"])
def test_bound_chunks_of_one_code_row_change_no_result_or_counter(fixture, request, monkeypatch):
    # _code_bounds converts the codes to float32 _BOUND_BYTES at a time. One
    # code row a chunk may round a bound differently, but within the proven
    # margin, so every result and every work counter stays the same.
    index = request.getfixturevalue(fixture)
    queries = [embed_question(index, text) for text in ("w001 w002", "w010 w011 w012", "w030")]

    def run_all():
        out = []
        for q in queries:
            for strategy in STRATEGIES:
                for k in (1, 10):
                    cfg = SearchConfig(strategy=strategy, top_k=k, dense_top_starts=200)
                    o = run_search(index, q, cfg)
                    out.append(([(r.span, r.score.hex(), r.dense_score.hex(),
                                  r.sparse_score.hex(), r.strategy) for r in o.results],
                                o.docs_visited, o.start_rows_scored, o.phrases_scored,
                                o.phrases_expanded))
        return out

    default = run_all()
    monkeypatch.setattr(search_module, "_BOUND_BYTES", 1)
    assert run_all() == default


def test_window_max_equals_the_brute_force_maximum():
    # Widths 1..max_span, powers of two or not, and windows that run past the
    # last end row (cut short there), up to arrays shorter than the window.
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 7, 16, 19, 20, 21, 33, 100]:
        values = rng.normal(size=n)
        values[rng.integers(0, n)] = np.inf
        for width in range(1, BuildConfig().max_span + 1):
            got = _window_max(values, width)
            want = np.array([values[i : i + width].max() for i in range(n)])
            assert np.array_equal(got, want), (n, width)
        assert np.array_equal(_window_max(values, 1), values)
        assert not np.shares_memory(_window_max(values, 5), values)


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_record_bound_covers_its_cells_and_is_at_most_the_block_max_bound(fixture, request):
    # Each record's bound must be at least the score of every one of its
    # cells, or the kernel could rule out a result, and at most the bound
    # that takes the block's largest end bound instead of its own window's.
    # Records of all documents, and of every other one, so the end rows are
    # one run or merged from gaps.
    index = request.getfixturevalue(fixture)
    doc_of_rec = index.para_table["doc"][index.rec_para]
    _, _, heads, tails = index.code_arrays()
    for text in ["w001 w002 w003", "w010 w011", "w040 w041 w042 w043"]:
        query = embed_question(index, text)
        q = query.dense
        start_fold, end_fold = _fold(index.start_quant, q.start), _fold(index.end_quant, q.end)
        start_logits_all = _code_logits(index.start_codes, np.arange(index.n_start_rows), start_fold)
        end_logits_all = _code_logits(index.end_codes, np.arange(index.n_end_rows), end_fold)
        coh_lo, coh_hi = index.coherency_range
        coh_top = max(coh_lo * q.coherency, coh_hi * q.coherency)
        para_sparse = _para_sparse(index, query.sparse)
        for recs in (np.arange(index.n_start_rows), np.flatnonzero(doc_of_rec % 2 == 0)):
            n_ends = index.rec_n_ends[recs]
            rows, first = _end_ranges(index.rec_end_row[recs], n_ends)
            start = _code_bounds(index.start_codes, recs, _fold32(start_fold))
            end = _code_bounds(index.end_codes, rows, _fold32(end_fold))
            sparse_term = 0.05 * para_sparse[index.rec_para[recs]]
            bound = _record_bounds(start, end, first, n_ends, coh_top, sparse_term)
            block_max = ((start + end.max()) + coh_top) + sparse_term
            assert np.isneginf(bound[n_ends == 0]).all()
            has = n_ends > 0
            assert (bound[has] <= block_max[has]).all()
            assert (bound[has] < block_max[has]).any()  # the own window is tighter
            for i, r in enumerate(recs.tolist()):
                for t in range(int(n_ends[i])):
                    row = int(index.rec_end_row[r]) + t
                    coh = np.float64(phrase_coherency(heads[r], tails[row])) * q.coherency
                    score = ((start_logits_all[r] + end_logits_all[row]) + coh) + sparse_term[i]
                    assert score <= bound[i], (text, r, t)


def _phrase_of(index, span):
    """(start record, end row) of a result's span."""
    prow = index.para_row(index.corpus.ordinal(span.doc_id), span.para_idx)
    r = int(np.flatnonzero((index.rec_para == prow) & (index.rec_tok == span.i))[0])
    ends = index.end_tok[index.rec_end_row[r] : index.rec_end_row[r] + index.rec_n_ends[r]]
    return r, int(index.rec_end_row[r]) + int(np.flatnonzero(ends == span.j)[0])


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_scores_add_up_bit_for_bit(fixture, request):
    # score = dense + scale * sparse, and dense is the float64 sum of the start
    # logit, the end logit and float64(coherency) * q_c, in that order. A
    # coherency product taken in float32 loses bits and fails here.
    index = request.getfixturevalue(fixture)
    _, _, heads, tails = index.code_arrays()
    checked = 0
    for text in ["w001 w002 w003", "w010 w011", "w040 w041 w042 w043", "w007"]:
        q = embed_question(index, text)
        start_fold = _fold(index.start_quant, q.dense.start)
        end_fold = _fold(index.end_quant, q.dense.end)
        for strategy in STRATEGIES:
            cfg = SearchConfig(strategy=strategy, top_k=20, sparse_top_docs=4,
                               dense_top_starts=40, nprobe=3)
            for res in run_search(index, q, cfg).results:
                r, row = _phrase_of(index, res.span)
                start = _code_logits(index.start_codes, np.array([r]), start_fold)[0]
                end = _code_logits(index.end_codes, np.array([row]), end_fold)[0]
                coh = np.float64(phrase_coherency(heads[r], tails[row])) * q.dense.coherency
                assert res.dense_score == start + end + coh
                assert res.score == res.dense_score + cfg.sparse_scale * res.sparse_score
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_work_counters(fixture, request):
    index = request.getfixturevalue(fixture)
    q = embed_question(index, "w001 w002 w003")
    exact = run_search(index, q, SearchConfig(strategy="exact"))
    assert (exact.start_rows_scored, exact.phrases_scored) == (index.n_start_rows, index.n_phrases)
    sfs = run_search(index, q, SearchConfig(strategy="sfs", sparse_top_docs=3))
    assert sfs.docs_visited == 3
    recs = np.concatenate([
        np.arange(index.doc_rec_begin[d], index.doc_rec_begin[d + 1])
        for d in sorted(sfs.visited_doc_ordinals)
    ])
    assert sfs.start_rows_scored == recs.size
    assert sfs.phrases_scored == int(index.rec_n_ends[recs].sum())


def test_phrase_coherency_sums_the_columns_in_order():
    # float32 of a float64 sum over ascending columns, whatever the batch shape.
    rng = np.random.default_rng(19)
    heads, tails = (
        (rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 5))).astype(np.float32)
        for n in (30, 7)
    )
    grid = phrase_coherency(heads[None, :, :], tails[:, None, :])
    assert grid.dtype == np.float32 and grid.shape == (7, 30)
    for e in range(7):
        for s in range(30):
            total = 0.0
            for h, t in zip(heads[s].tolist(), tails[e].tolist()):
                total += h * t
            assert grid[e, s] == np.float32(total)
            assert phrase_coherency(heads[s], tails[e]) == grid[e, s]
    # Cancelling columns show the order: 1 + 2^60 rounds to 2^60, so only the
    # ascending sum gives 0 for both rows.
    head = np.array([[1.0, 2.0**60, -(2.0**60)], [2.0**60, 1.0, -(2.0**60)]], dtype=np.float32)
    assert phrase_coherency(head, np.ones(3, dtype=np.float32)).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_search_builds_no_per_phrase_table(fixture, request):
    # Search reads the coherency heads and tails and the per-record arrays;
    # it keeps nothing with an entry per phrase.
    index = load_index(request.getfixturevalue(fixture).path)
    q = embed_question(index, "w001 w002 w003")
    for strategy in STRATEGIES:
        assert run_search(index, q, SearchConfig(strategy=strategy, nprobe=2)).results
    assert not _per_phrase_arrays(index)


def _per_phrase_arrays(index) -> list[str]:
    """The index's attributes that hold an array with a row per phrase."""
    return [name for name, value in vars(index).items()
            if isinstance(value, np.ndarray) and value.shape[:1] == (index.n_phrases,)]


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_coherency_range_is_the_least_and_greatest_phrase_coherency(fixture, request):
    index = load_index(request.getfixturevalue(fixture).path)
    _, _, heads, tails = index.code_arrays()
    coherency = [  # each record's phrases, ending at its end rows in turn
        phrase_coherency(heads[r], tails[first : first + n])
        for r, (first, n) in enumerate(zip(index.rec_end_row, index.rec_n_ends))
    ]
    coherency = np.concatenate(coherency)
    assert coherency.size == index.n_phrases
    assert index.coherency_range == (float(coherency.min()), float(coherency.max()))


def test_exact_scratch_does_not_grow_with_the_records(tmp_path):
    # The kernel scores records a block at a time, so one exact query's traced
    # peak must stay flat on a 4x larger index; phrase-sized scratch would
    # grow it about 4x.
    records, peaks = [], []
    for n_docs in (100, 400):
        corpus = make_random_corpus(np.random.default_rng(n_docs), n_docs=n_docs,
                                    tokens_per_para=(100, 100), paras_per_doc=(1, 1))
        index = build_small_index(corpus, tmp_path / f"idx{n_docs}", max_span=8, ivf_clusters=2)
        q = embed_question(index, "w001 w002 w003")
        cfg = SearchConfig(strategy="exact")
        run_search(index, q, cfg)  # builds what is derived on first use
        tracemalloc.start()
        try:
            run_search(index, q, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        records.append(index.n_start_rows)
    assert records[0] > _BLOCK and records[1] >= 4 * records[0]
    assert peaks[1] <= 1.5 * peaks[0], (records, peaks)


def test_record_end_rows_match_end_entries(random_index, filtered_index):
    assert (filtered_index.rec_n_ends == 0).any()
    rng = np.random.default_rng(3)
    for index in (random_index, filtered_index):
        n_ends, end_row = index.rec_n_ends, index.rec_end_row
        # Phrase (r, t) ends at end row end_row[r] + t: the record's end
        # tokens ascend within max_span of its own.
        assert int(n_ends.sum()) == index.n_phrases
        for r in range(index.n_start_rows):
            tok = index.end_tok[end_row[r] : end_row[r] + n_ends[r]] - index.rec_tok[r]
            assert (tok >= 0).all() and (tok < index.max_span).all() and (np.diff(tok) > 0).all()
        # Per query: the merged ranges of any ascending set of records.
        for n in [1, 2, index.n_start_rows, *rng.integers(1, index.n_start_rows, size=30)]:
            recs = np.sort(rng.choice(index.n_start_rows, size=int(n), replace=False))
            want = np.concatenate([np.arange(end_row[r], end_row[r] + n_ends[r]) for r in recs])
            rows, first = _end_ranges(index.rec_end_row[recs], n_ends[recs])
            assert np.array_equal(rows, np.unique(want))
            assert np.array_equal(rows[_ranges(first, n_ends[recs])], want)


def test_end_ranges_merge_any_nondecreasing_begins():
    # Intervals may overlap, nest or be empty; only the begins are ordered.
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        begin = np.sort(rng.integers(0, 20, size=n))
        count = rng.integers(0, 6, size=n)
        want = np.concatenate([np.arange(b, b + c) for b, c in zip(begin, count)])
        rows, first = _end_ranges(begin, count)
        assert np.array_equal(rows, np.unique(want))
        assert np.array_equal(rows[_ranges(first, count)], want)


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index", "gapped_index"])
def test_end_rows_chain_as_derived_and_the_range_path_equals_the_merge(fixture, request):
    # rec_ends_chain, derived at open, must be the brute-force fact: each
    # record's end rows begin no later than the previous record's stop, and
    # the stops never fall. Where it holds, every range of records reads its
    # end rows as one range, and that must equal _end_ranges' merge.
    index = request.getfixturevalue(fixture)
    begin, n_ends = index.rec_end_row.tolist(), index.rec_n_ends.tolist()
    stop = [b + n for b, n in zip(begin, n_ends)]
    chained = all(begin[r + 1] <= stop[r] and stop[r + 1] >= stop[r] for r in range(len(begin) - 1))
    assert index.rec_ends_chain is chained
    if fixture == "random_index":  # every token is a start and an end
        assert chained
    if fixture == "gapped_index":
        assert not chained
    n = index.n_start_rows
    rng = np.random.default_rng(2)
    pairs = [(0, n), (0, 1), (n - 1, n), *(sorted(rng.choice(n + 1, 2, replace=False))
                                             for _ in range(200))]
    for a, b in pairs:
        a, b = int(a), int(b)
        rows, first = search_module._block_end_rows(index, range(a, b), index.rec_n_ends[a:b])
        want_rows, want_first = _end_ranges(index.rec_end_row[a:b], index.rec_n_ends[a:b])
        assert isinstance(rows, range) or not chained
        assert np.array_equal(np.asarray(rows), want_rows), (a, b)
        assert np.array_equal(first, want_first), (a, b)


def test_para_sparse_same_bits_in_any_subset(random_index):
    # The CSR pass over every paragraph must give the same bits with or
    # without the document scores given, and agree with the per-vector
    # reference: the re-fitted document and paragraph vectors with their
    # float32 stored weights, summed and scaled by the stored 1 / ||doc + para||.
    index = random_index
    n_paras = len(index.para_table)
    tfidf = fit_tfidf(index.corpus)

    def stored(vec):
        return SparseVector(vec.bins, vec.weights.astype(np.float32).astype(np.float64))

    parts = []  # (document vector, paragraph vector) per paragraph row
    for d, p in zip(index.para_table["doc"].tolist(), index.para_table["para"].tolist()):
        doc = index.corpus.doc_by_ordinal(d)
        doc_vec = stored(tfidf.embed(doc))
        sole = len(doc.paragraphs) == 1
        parts.append((doc_vec, doc_vec if sole else stored(tfidf.embed(doc.paragraphs[p]))))
    assert any(doc_vec is para_vec for doc_vec, para_vec in parts)
    for text in ["w001 w002 w003", "w010 w011", "w040 w041 w042 w043"]:
        q = embed_question(index, text).sparse
        full = _para_sparse(index, q)
        assert full.any() and full.shape == (n_paras,)
        doc_scores = sparse_module.score_docs(q, index.postings)
        assert np.array_equal(_para_sparse(index, q, doc_scores=doc_scores), full)
        for p, (doc_vec, para_vec) in enumerate(parts):
            want = (sparse_score(q, doc_vec) + sparse_score(q, para_vec)) * index.para_inv_norm[p]
            assert abs(full[p] - want) <= 1e-12


def test_search_and_service_never_build_the_per_phrase_tables(random_index):
    from phraseindex.index import BuildConfig, dequantize, fit_quantization, load_index, quantize
    from phraseindex.service import handle_query

    index = load_index(random_index.path)
    q = embed_question(index, "w001 w002 w003")
    for strategy in ("exact", "sfs", "dfs", "hybrid"):
        assert run_search(index, q, SearchConfig(strategy=strategy, top_k=5)).results
    assert handle_query(index, {"question": "w001 w002"}, SearchConfig())["results"]
    assert not _per_phrase_arrays(index)


def test_run_search_dispatch(random_index):
    q = embed_question(random_index, "w001")
    for strategy in ("exact", "sfs", "dfs", "hybrid"):
        out = run_search(random_index, q, SearchConfig(strategy=strategy, top_k=3))
        assert out.strategy == strategy


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(strategy="fuzzy")
    with pytest.raises(ValueError):
        SearchConfig(top_k=0)
    with pytest.raises(ValueError):
        SearchConfig(sparse_scale=-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), True])
def test_search_config_rejects_a_non_finite_sparse_scale(bad):
    # NaN fails every comparison with the floor and inf * 0 is NaN, so either
    # used to return no results at all, silently.
    with pytest.raises(ValueError, match="sparse_scale"):
        SearchConfig(sparse_scale=bad)


@pytest.mark.parametrize("field", ["top_k", "sparse_top_docs", "dense_top_starts", "nprobe"])
@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_search_config_rejects_bool_and_non_integer_counts(field, bad):
    with pytest.raises(ValueError, match="integers"):
        SearchConfig(**{field: bad})
    assert getattr(SearchConfig(**{field: np.int64(3)}), field) == 3


def _brute_force(index, query, config, docs):
    """The top config.top_k (span, score) pairs over every phrase of the
    documents `docs`, one phrase at a time. The per-row logits and paragraph
    sparse scores come from the primitives tested above; the bound, the floor,
    the blocks and the rectangles are not involved."""
    q = query.dense
    start = _code_logits(index.start_codes, np.arange(index.n_start_rows),
                         _fold(index.start_quant, q.start))
    end = _code_logits(index.end_codes, np.arange(index.n_end_rows), _fold(index.end_quant, q.end))
    sparse = _para_sparse(index, query.sparse)
    _, _, heads, tails = index.code_arrays()
    ranked = []
    for r in range(index.n_start_rows):
        para = int(index.rec_para[r])
        doc = int(index.para_table["doc"][para])
        if doc not in docs:
            continue
        for t in range(int(index.rec_n_ends[r])):
            row = int(index.rec_end_row[r]) + t
            coh = np.float64(phrase_coherency(heads[r], tails[row]))
            dense = start[r] + end[row] + coh * q.coherency
            score = float(dense + config.sparse_scale * sparse[para])
            span = SpanRef(index.doc_id(doc), int(index.para_table["para"][para]),
                           int(index.rec_tok[r]), int(index.end_tok[row]))
            ranked.append((-score, r, t, span, score))  # (r, t) ascends in (doc, para, i, j)
    ranked.sort()
    return [(span, score) for *_, span, score in ranked[: config.top_k]]


def _zero_dense():
    b = SMALL_CONFIG.boundary_dim
    return QueryDenseVector(np.zeros(b), np.zeros(b), 0.0)


# Each case: fixture, question, how to change the embedded query, config changes.
BOUND_CASES = {
    "ties_at_the_kth_score": (
        "random_index", "w001", lambda q: QueryVector(_zero_dense(), SparseVector.empty()), {}),
    "ties_with_sparse_scale_0": (
        "random_index", "w001 w002", lambda q: QueryVector(_zero_dense(), q.sparse),
        {"sparse_scale": 0.0}),
    "negative_coherency_weight": (
        "random_index", "w003 w004 w005",
        lambda q: QueryVector(QueryDenseVector(q.dense.start, q.dense.end, -40.0), q.sparse), {}),
    "sparse_scale_0": ("random_index", "w010 w011", lambda q: q, {"sparse_scale": 0.0}),
    "sparse_term_dominates": ("random_index", "w012 w013", lambda q: q, {"sparse_scale": 50.0}),
    "top_k_above_n_phrases": ("random_index", "w020 w021", lambda q: q, {"top_k": 10 ** 6}),
    "records_without_ends": ("filtered_index", "w030 w031", lambda q: q, {"top_k": 25}),
    "top_k_1": ("filtered_index", "w040 w041 w042", lambda q: q, {"top_k": 1}),
}


@pytest.mark.parametrize("block", [7, 40, 2048])
@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_bound_keeps_the_brute_force_top_k(case, block, request, monkeypatch):
    # 7-record blocks are too small to seed the floor: it comes from the
    # first blocks' own k-th best. 40-record blocks seed it in the first
    # block and carry it over several; 2048 records, like the default _BLOCK,
    # make every fixture one block.
    fixture, text, edit, changes = BOUND_CASES[case]
    index = request.getfixturevalue(fixture)
    monkeypatch.setattr(search_module, "_BLOCK", block)
    query = edit(embed_question(index, text))
    assert (index.rec_n_ends == 0).any() == (fixture == "filtered_index")
    for strategy in STRATEGIES:
        # Full budgets: SFS scores every record of its documents, and DFS every record.
        cfg = replace(SearchConfig(strategy=strategy, top_k=10, sparse_top_docs=index.n_docs,
                                   dense_top_starts=index.n_start_rows,
                                   nprobe=index.ivf.centroids.shape[0]), **changes)
        out = run_search(index, query, cfg)
        want = _brute_force(index, query, cfg, out.visited_doc_ordinals)
        assert [(r.span, r.score) for r in out.results] == want, (case, strategy)
        assert out.phrases_expanded <= out.phrases_scored
        if strategy != "sfs" or not query.sparse.is_empty:
            assert out.results
    if case.startswith("ties"):
        assert all(score == 0.0 for _, score in want)
        assert out.phrases_expanded == out.phrases_scored  # every record reaches the tie


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_seed_keeps_the_brute_force_top_k_for_every_k(fixture, request):
    # The first block takes the seed's cells as its expansion only when no
    # record outside the seed reaches the seed's floor; sweeping k moves the
    # number of records that reach it across the seed's size.
    index = request.getfixturevalue(fixture)
    for text in ["w001 w002 w003", "w010 w011", "w040 w041 w042 w043", "w007", "w020 w055"]:
        query = embed_question(index, text)
        for k in range(1, 16):
            cfg = SearchConfig(strategy="exact", top_k=k)
            out = run_search(index, query, cfg)
            want = _brute_force(index, query, cfg, out.visited_doc_ordinals)
            assert [(r.span, r.score) for r in out.results] == want, (text, k)


def test_bound_expands_few_phrases_on_exact(random_index):
    q = embed_question(random_index, "w001 w002 w003")
    out = run_search(random_index, q, SearchConfig(strategy="exact"))
    assert out.phrases_scored == random_index.n_phrases
    assert 0 < out.phrases_expanded < out.phrases_scored / 2


# ---------------------------------------------------------------------------
# The fixed cost of a query: question embedding and result assembly
# ---------------------------------------------------------------------------

# Words, and punctuation that tokenize makes tokens of its own.
_QUESTION_WORDS = [f"w{k:03d}" for k in range(30)] + ["?", ",", ".", "(", ")", '"', "it's"]


@pytest.mark.parametrize("window", [0, 1, 2, 3])
@pytest.mark.parametrize("config", [SMALL_CONFIG, EncoderConfig(dim=64, boundary_dim=28, coherency_dim=4)])
def test_embed_question_encodes_only_the_marker_window_to_the_same_bits(window, config):
    # The dense vector must be that of the whole question's marker row, bit
    # for bit, with a trained (non-identity) linear layer, while only the
    # marker and its window of tokens (at least one) are encoded.
    rng = np.random.default_rng(window)
    encoder = ToyEncoder(config, seed=5, window=window)
    encoder.linear = encoder.linear + rng.normal(0.0, 0.1, encoder.linear.shape)
    encoded = []

    def encode_question(tokens, key=""):
        encoded.append(len(tokens))
        return ToyEncoder.encode_question(encoder, tokens, key)

    index = SimpleNamespace(encoder=SimpleNamespace(window=window, encode_question=encode_question),
                            tfidf=TfIdfModel(doc_count=1, doc_freq={}))
    for n in [*range(1, 13), 1, 2, 12]:
        text = " ".join(rng.choice(_QUESTION_WORDS, n))
        tokens = tokenize(text)
        assert len(tokens) == n
        got = embed_question(index, text).dense
        assert encoded.pop() == max(1, min(window, n))
        want = question_dense(encoder.encode_question(tokens))
        assert got.start.tobytes() == want.start.tobytes(), (text, window)
        assert got.end.tobytes() == want.end.tobytes(), (text, window)
        assert float(got.coherency).hex() == float(want.coherency).hex(), (text, window)
    assert embed_question(index, "?").dense.start.tobytes() == question_dense(
        encoder.encode_question(tokenize("?"))
    ).start.tobytes()


def _reference_result(index, query, config, res, label):
    """Every field of a result rebuilt from the index for that result alone:
    its start record and end row, the logits of those two rows, the sparse
    score of its paragraph and the corpus text of its tokens."""
    r, row = _phrase_of(index, res.span)
    prow = int(index.rec_para[r])
    doc_ord = int(index.para_table["doc"][prow])
    doc = index.corpus.doc_by_ordinal(doc_ord)
    para = doc.paragraphs[int(index.para_table["para"][prow])]
    i, j = int(index.rec_tok[r]), int(index.end_tok[row])
    _, _, heads, tails = index.code_arrays()
    q = query.dense
    start = _code_logits(index.start_codes, np.array([r]), _fold(index.start_quant, q.start))[0]
    end = _code_logits(index.end_codes, np.array([row]), _fold(index.end_quant, q.end))[0]
    coh = np.float64(phrase_coherency(heads[r], tails[row]))
    dense = float(start + end + coh * q.coherency)
    sparse = float(_para_sparse(index, query.sparse)[prow])
    return {
        "text": para.raw_text[para.tokens[i].char_start : para.tokens[j].char_end],
        "doc_id": doc.id, "doc_title": doc.title, "para_idx": int(index.para_table["para"][prow]),
        "start_token": i, "end_token": j,
        "score": float(dense + config.sparse_scale * sparse).hex(),
        "dense_score": dense.hex(), "sparse_score": sparse.hex(), "strategy": label(r),
    }


@pytest.mark.parametrize("fixture", ["random_index", "filtered_index"])
def test_every_result_field_equals_a_reference_built_one_result_at_a_time(fixture, request):
    index = request.getfixturevalue(fixture)
    labels, checked = set(), 0
    for text in ["w001 w002 w003", "w010 w011", "w040 w041 w042 w043", "w007", "w005"]:
        query = embed_question(index, text)
        for strategy in STRATEGIES:
            for top_k in (15, 10 ** 6):  # 10**6 is more than the phrases of any fixture
                cfg = SearchConfig(strategy=strategy, top_k=top_k, sparse_top_docs=3,
                                   dense_top_starts=15, nprobe=2)
                out = run_search(index, query, cfg)
                sfs_docs = sfs_search(index, query, cfg).visited_doc_ordinals
                dfs_recs = set(search_module._dfs_starts(index, index.ivf, query, cfg).tolist())

                def label(r):
                    if strategy != "hybrid":
                        return strategy
                    in_sfs = int(index.para_table["doc"][index.rec_para[r]]) in sfs_docs
                    return {(True, True): "sfs+dfs", (True, False): "sfs",
                            (False, True): "dfs"}[in_sfs, r in dfs_recs]

                for res in out.results:
                    got = res.as_dict()
                    assert all(type(got[f]) is int for f in ("para_idx", "start_token", "end_token"))
                    assert all(type(got[f]) is float for f in ("score", "dense_score", "sparse_score"))
                    for f in ("score", "dense_score", "sparse_score"):
                        got[f] = got[f].hex()
                    assert got == _reference_result(index, query, cfg, res, label)
                    labels.add(res.strategy)
                    checked += 1
                if top_k > index.n_phrases:
                    assert len(out.results) == out.phrases_scored
                else:
                    assert len(out.results) == min(top_k, out.phrases_scored)
                positions = [_phrase_of(index, res.span) for res in out.results]
                assert [(-res.score, pos) for res, pos in zip(out.results, positions)] == sorted(
                    (-res.score, pos) for res, pos in zip(out.results, positions)
                )
    assert {"exact", "sfs", "dfs", "sfs+dfs"} <= labels
    assert checked > 1000


def test_hybrid_and_sfs_score_the_documents_once(random_index, monkeypatch):
    # score_docs runs once over the document postings and once over the
    # paragraph postings, whatever the number of blocks.
    calls = []
    score_docs = sparse_module.score_docs

    def counted(q, inverted):
        calls.append(inverted)
        return score_docs(q, inverted)

    monkeypatch.setattr(sparse_module, "score_docs", counted)
    monkeypatch.setattr(search_module, "score_docs", counted)
    query = embed_question(random_index, "w001 w002 w003")
    for strategy in ("sfs", "hybrid"):
        cfg = SearchConfig(strategy=strategy, sparse_top_docs=3, dense_top_starts=15, nprobe=2)
        calls.clear()
        out = run_search(random_index, query, cfg)
        assert out.results and len(calls) == 2, strategy
        assert calls[0] is random_index.postings and calls[1] is random_index.para_postings


def test_question_of_idf_zero_ngrams_gets_no_sfs_documents_under_hybrid(random_index):
    # w005 occurs in at least half the documents, so its idf is 0 and the
    # question's sparse vector is empty: SFS chooses no document, and hybrid
    # scores only the DFS records.
    assert random_index.tfidf.idf(sparse_module.ngram_bin("w005")) == 0.0
    query = embed_question(random_index, "w005")
    assert query.sparse.is_empty
    cfg = SearchConfig(strategy="hybrid", sparse_top_docs=3, dense_top_starts=15, nprobe=2)
    recs, docs, _ = search_module._sfs_starts(random_index, query, cfg)
    assert recs.size == 0 and docs == frozenset()
    dfs_recs = search_module._dfs_starts(random_index, random_index.ivf, query, cfg)
    out = hybrid_search(random_index, random_index.ivf, query, cfg)
    assert out.results and {r.strategy for r in out.results} == {"dfs"}
    assert out.start_rows_scored == dfs_recs.size
    assert out.visited_doc_ordinals == frozenset(
        random_index.para_table["doc"][random_index.rec_para[dfs_recs]].tolist()
    )
    assert all(r.sparse_score == 0.0 for r in out.results)
