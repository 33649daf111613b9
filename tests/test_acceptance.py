"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported benchmark numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    PLANTED_HYBRID,
    SMALL_CONFIG,
    build_small_index,
    make_random_corpus,
)
from oracles import brute_force_tfidf_weights, enumerate_all_scores
from phraseindex.corpus import CorpusStore, Document, Paragraph, tokenize
from phraseindex.dense import EncoderConfig, ToyEncoder, dense_score, phrase_dense, question_dense
from phraseindex.index import (
    dequantize,
    estimate_index_size,
    fit_quantization,
    load_index,
    quantize,
)
from phraseindex.search import (
    SearchConfig,
    dfs_search,
    embed_question,
    exact_search,
    hybrid_search,
    phrase_coherency,
    sfs_search,
)
from phraseindex.service import benchmark, em_f1
from phraseindex.sparse import (
    LinearMap,
    SparseRows,
    TwoLayerMap,
    build_inverted_index,
    embed_text_sparse,
    fit_tfidf,
    learned_sparse_encode,
    retrieve_top_docs,
    sparse_score,
)
from phraseindex.training import (
    combined_loss_and_grads,
    compute_logits,
    true_loss,
    valid_span_mask,
)


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS — {message}")


# ---------------------------------------------------------------------------
# Shared random corpora with built indexes (criteria 3, 4, 5)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_indexes(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    rng = np.random.default_rng(777)
    out = []
    for k in range(10):
        corpus = make_random_corpus(
            rng,
            n_docs=int(rng.integers(8, 26)),
            tokens_per_para=(10, 35),
            paras_per_doc=(1, 2),
        )
        encoder = ToyEncoder(SMALL_CONFIG, seed=100 + k)
        index = build_small_index(
            corpus, base / f"idx{k}", max_span=4, seed=k, ivf_clusters=8, encoder=encoder
        )
        out.append((corpus, index))
    return out


def test_criterion_1_loss_equivalence():
    rng = np.random.default_rng(1)
    enc = ToyEncoder(SMALL_CONFIG, seed=9)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 33))
        max_span = int(rng.integers(1, 6))
        words = " ".join(f"w{int(k)}" for k in rng.integers(0, 50, size=T))
        H = enc.encode_document(tokenize(words))
        q = question_dense(enc.encode_question(tokenize("what is that thing")))
        bundle = compute_logits(H, q, max_span)

        brute = np.full((T, T), -np.inf)
        for i in range(T):
            for j in range(i, min(i + max_span, T)):
                brute[i, j] = dense_score(q, phrase_dense(H, i, j))
        mask = valid_span_mask(T, max_span)
        worst = max(worst, float(np.max(np.abs(bundle.matrix[mask] - brute[mask]))))

        answer_i = int(rng.integers(T))
        answer_j = min(answer_i + int(rng.integers(max_span)), T - 1)
        direct = -brute[answer_i, answer_j] + math.log(
            float(np.exp(brute[mask]).sum())
        )
        worst = max(worst, abs(true_loss(bundle, (answer_i, answer_j)) - direct))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report(1, f"100 instances, max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(2)
    cfg = EncoderConfig(dim=12, boundary_dim=4, coherency_dim=2)
    enc = ToyEncoder(cfg, seed=4)
    step = 1e-3
    worst = 0.0
    for trial in range(20):
        T = int(rng.integers(2, 7))
        words = " ".join(f"w{int(k)}" for k in rng.integers(0, 20, size=T))
        base_d = enc.base_document(tokenize(words))
        base_q = enc.base_question(tokenize("which one"))
        V = np.eye(cfg.dim) + 0.15 * rng.normal(size=(cfg.dim, cfg.dim))
        i_star = int(rng.integers(T))
        j_star = min(i_star + int(rng.integers(2)), T - 1)
        bias = float(rng.normal())

        def loss_at(V_):
            loss, *_ = combined_loss_and_grads(
                base_d @ V_.T, base_q @ V_.T, cfg, (i_star, j_star), 3, bias
            )
            return loss

        _, _, dH, dHq, _ = combined_loss_and_grads(
            base_d @ V.T, base_q @ V.T, cfg, (i_star, j_star), 3, bias
        )
        dV = dH.T @ base_d + dHq.T @ base_q
        coords = [(int(a), int(b)) for a, b in rng.integers(0, cfg.dim, size=(6, 2))]
        for a, b in coords:
            plus, minus = V.copy(), V.copy()
            plus[a, b] += step
            minus[a, b] -= step
            fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
            rel = abs(fd - dV[a, b]) / max(1e-8, abs(fd) + abs(dV[a, b]))
            worst = max(worst, rel)
    assert worst < 1e-4
    report(2, f"20 instances, worst relative error {worst:.2e}")


def test_criterion_3_exact_search_oracle(random_indexes):
    worst = 0.0
    for k, (corpus, index) in enumerate(random_indexes):
        q = embed_question(index, f"where is w{k:03d} w{(k + 3) % 40:03d}")
        cfg = SearchConfig(strategy="exact", top_k=10)
        got = exact_search(index, q, cfg)
        expected = enumerate_all_scores(
            index.path, corpus, index.max_span,
            q.dense.start, q.dense.end, q.dense.coherency, q.sparse, cfg.sparse_scale,
        )[:10]
        assert len(got.results) == len(expected)
        for res, (score, doc_ord, para_idx, i, j) in zip(got.results, expected):
            assert (index.corpus.ordinal(res.span.doc_id), res.span.para_idx) == (doc_ord, para_idx)
            assert (res.span.i, res.span.j) == (i, j)
            worst = max(worst, abs(res.score - score))
        assert worst < 1e-6
    report(3, f"10 corpora, top-10 span-for-span, max |score diff| {worst:.2e}")


def test_criterion_4_exhaustive_limit_equivalence(random_indexes):
    for k, (corpus, index) in enumerate(random_indexes):
        q = embed_question(index, f"which w{(2 * k) % 40:03d} is near w{(k + 7) % 40:03d}")
        exact = exact_search(index, q, SearchConfig(strategy="exact", top_k=10))
        sfs = sfs_search(
            index, q, SearchConfig(strategy="sfs", top_k=10, sparse_top_docs=index.n_docs)
        )
        n_clusters = index.ivf.centroids.shape[0]
        dfs = dfs_search(
            index, index.ivf, q,
            SearchConfig(strategy="dfs", top_k=10, nprobe=n_clusters,
                         dense_top_starts=index.n_start_rows),
        )
        expected = [(r.span, r.score) for r in exact.results]
        assert [(r.span, r.score) for r in sfs.results] == expected
        assert [(r.span, r.score) for r in dfs.results] == expected
    report(4, "SFS(k_s=|docs|) and DFS(nprobe=all, k_d=all) reproduce exact top-10")


def test_criterion_5_hybrid_dominance_and_monotonicity(random_indexes):
    rng = np.random.default_rng(5)
    base = dict(top_k=1, sparse_top_docs=2, dense_top_starts=12, nprobe=1)
    checked = 0
    while checked < 100:
        corpus, index = random_indexes[int(rng.integers(len(random_indexes)))]
        words = " ".join(f"w{int(w):03d}" for w in rng.integers(0, 40, size=3))
        q = embed_question(index, words)
        cfg = SearchConfig(strategy="hybrid", **base)
        hybrid = hybrid_search(index, index.ivf, q, cfg)
        sfs = sfs_search(index, q, cfg)
        dfs = dfs_search(index, index.ivf, q, cfg)
        for sub in (sfs, dfs):
            if sub.results:
                assert hybrid.results[0].score >= sub.results[0].score - 1e-12
        doubled = SearchConfig(
            strategy="hybrid", top_k=1, sparse_top_docs=4, dense_top_starts=24, nprobe=2
        )
        bigger = hybrid_search(index, index.ivf, q, doubled)
        assert bigger.results[0].score >= hybrid.results[0].score - 1e-12
        checked += 1
    report(5, "100 queries: hybrid top-1 dominates SFS/DFS; doubled budgets never hurt")


def test_criterion_6_quantization_bounds(tmp_path):
    rng = np.random.default_rng(6)
    # Exhaustive per-dimension grid round trip.
    sample = rng.normal(size=(400, 8)) * rng.uniform(0.05, 4.0, size=8)
    params = fit_quantization(sample)
    codes = np.tile(np.arange(-128, 128, dtype=np.int8)[:, None], (1, 8))
    np.testing.assert_array_equal(quantize(dequantize(codes, params), params), codes)

    # Analytic indexed-vs-float score bound on 1000 random (query, phrase) pairs.
    corpus = make_random_corpus(rng, n_docs=20, tokens_per_para=(10, 25))
    encoder = ToyEncoder(SMALL_CONFIG, seed=60)
    index = build_small_index(corpus, tmp_path / "idx", max_span=4, encoder=encoder)
    paras = list(corpus.iter_paragraphs())
    _, _, heads, tails = index.code_arrays()
    worst_slack = -1.0
    for _ in range(1000):
        doc_ord, doc, para_idx, para = paras[int(rng.integers(len(paras)))]
        H = encoder.encode_document(para.tokens)
        i = int(rng.integers(para.n_tokens))
        j = min(i + int(rng.integers(index.max_span)), para.n_tokens - 1)
        q = question_dense(
            encoder.encode_question([f"q{int(w)}" for w in rng.integers(0, 30, size=4)])
        )
        float_score = dense_score(q, phrase_dense(H, i, j))

        para_row = index.para_row(doc_ord, para_idx)
        rec = int(index.para_table[para_row]["rec_begin"]) + i
        a_hat = index.dequant_start_rows(np.array([rec]))[0]
        first = int(index.rec_end_row[rec])
        ends = index.end_tok[first : first + int(index.rec_n_ends[rec])]
        row = first + int(np.flatnonzero(ends == j)[0])
        b_hat = index.dequant_end_rows(np.array([row]))[0]
        indexed = (
            float(a_hat @ q.start)
            + float(b_hat @ q.end)
            + q.coherency * float(phrase_coherency(heads[rec], tails[row]))
        )
        bound = (
            float(np.abs(q.start) @ (index.start_quant.scales / 2))
            + float(np.abs(q.end) @ (index.end_quant.scales / 2))
            + 1e-6
        )
        gap = abs(indexed - float_score)
        assert gap <= bound
        worst_slack = max(worst_slack, gap / bound)
    report(6, f"grid exact; 1000 pairs within analytic bound (worst gap/bound {worst_slack:.2f})")


def test_criterion_7_storage_arithmetic():
    TB = 1e12
    est = estimate_index_size(60e9, 3e9, 480, survival_rate=5 / 12, bytes_per_value=4)
    chain = {
        "naive": (est.naive_bytes, 240 * TB),
        "pointer": (est.pointer_bytes, 12 * TB),
        "filtered": (est.filtered_bytes, 5 * TB),
        "quantized": (est.quantized_bytes, 1.2 * TB),
    }
    for stage, (got, target) in chain.items():
        assert abs(got - target) <= 0.05 * target, stage
    report(7, "240 TB -> 12 TB -> 5 TB -> 1.2 TB chain within ±5%")


def test_criterion_8_dedup_accounting(tmp_path, planted_suite, random_indexes):
    from phraseindex.training import FilterModel

    builds = [index for _, index in random_indexes] + [planted_suite.index]
    # Add one build with a non-trivial filter so both mask shapes are covered.
    rng = np.random.default_rng(8)
    corpus = make_random_corpus(rng, n_docs=8)
    w = rng.normal(size=SMALL_CONFIG.boundary_dim)
    model = FilterModel(w, 0.3, -w, 0.3, threshold=0.5)
    builds.append(
        build_small_index(corpus, tmp_path / "filtered", filter_model=model,
                          encoder=ToyEncoder(SMALL_CONFIG, seed=2))
    )
    for index in builds:
        counts = index.counts
        stored = index.n_start_rows + index.n_end_rows
        assert index.n_start_rows == counts["surviving_start_tokens"]
        assert index.n_end_rows == counts["surviving_end_tokens"]
        assert stored == counts["surviving_start_tokens"] + counts["surviving_end_tokens"]
        if counts["surviving_start_tokens"] == counts["surviving_end_tokens"] == counts["tokens"]:
            assert stored == 2 * counts["tokens"]
    est = estimate_index_size(60e9, 3e9, 480, survival_rate=0.5)
    assert est.naive_bytes / est.pointer_bytes == (60e9 * (2 * 480 + 1)) / (2 * 3e9 * 480)
    report(8, f"{len(builds)} builds: stored rows equal surviving-token counts exactly")


def test_criterion_9_planted_end_to_end(planted_suite):
    t0 = time.perf_counter()
    index = planted_suite.index
    exact_hits = 0
    hybrid_hits = 0
    for pq in planted_suite.questions:
        top_exact = exact_search(index, pq.query, SearchConfig(strategy="exact", top_k=1))
        em, _ = em_f1(top_exact.results[0].text, pq.gold_answers)
        exact_hits += em
        top_hybrid = hybrid_search(index, index.ivf, pq.query, PLANTED_HYBRID)
        em, _ = em_f1(top_hybrid.results[0].text, pq.gold_answers)
        hybrid_hits += em
    elapsed = time.perf_counter() - t0
    exact_em = exact_hits / len(planted_suite.questions)
    hybrid_em = hybrid_hits / len(planted_suite.questions)
    assert exact_em == 1.0
    assert hybrid_em >= 0.95
    assert elapsed < 60.0
    report(9, f"EXACT EM {exact_em:.2f}, HYBRID EM {hybrid_em:.2f}, {elapsed:.1f}s")


def test_criterion_10_sparse_ablation_direction(planted_suite):
    index = planted_suite.index
    def em_at(scale: float) -> float:
        hits = 0.0
        for pq in planted_suite.questions:
            out = exact_search(
                index, pq.query, SearchConfig(strategy="exact", top_k=1, sparse_scale=scale)
            )
            hits += em_f1(out.results[0].text, pq.gold_answers)[0]
        return hits / len(planted_suite.questions)

    with_sparse = em_at(0.05)
    without_sparse = em_at(0.0)
    assert without_sparse < with_sparse
    report(10, f"EM {with_sparse:.2f} with sparse vs {without_sparse:.2f} without")


def test_criterion_11_tfidf_oracle():
    rng = np.random.default_rng(11)
    # 50 random paragraphs against the dictionary-based calculator.
    words = [f"w{k}" for k in range(30)]
    worst = 0.0
    for _ in range(5):
        texts = [
            " ".join(rng.choice(words, size=int(rng.integers(4, 12)))) for _ in range(10)
        ]
        corpus = CorpusStore(
            [Document(f"d{k}", "t", [Paragraph.from_text(t)]) for k, t in enumerate(texts)]
        )
        model = fit_tfidf(corpus)
        for text in texts:
            got = embed_text_sparse(Paragraph.from_text(text), model)
            expected = brute_force_tfidf_weights(texts, text)
            got_map = dict(zip(got.bins.tolist(), got.weights.tolist()))
            assert set(got_map) == set(expected)
            for b, w in expected.items():
                worst = max(worst, abs(got_map[b] - w))
    assert worst < 1e-9

    # Exhaustive top-k ranking on a 1000-document corpus.
    texts = [
        " ".join(rng.choice([f"v{k}" for k in range(80)], size=8)) for _ in range(1000)
    ]
    corpus = CorpusStore(
        [Document(f"d{k}", "t", [Paragraph.from_text(t)]) for k, t in enumerate(texts)]
    )
    model = fit_tfidf(corpus)
    doc_vecs = [embed_text_sparse(doc, model) for doc in corpus]
    inv = build_inverted_index(SparseRows(doc_vecs))
    for probe in range(0, 1000, 199):
        query = doc_vecs[probe]
        got = retrieve_top_docs(query, inv, 10)
        brute = sorted(
            ((d, sparse_score(query, v)) for d, v in enumerate(doc_vecs)),
            key=lambda t: (-t[1], t[0]),
        )[:10]
        assert [d for d, _ in got] == [d for d, _ in brute]
    report(11, f"50 paragraphs, max |weight diff| {worst:.2e}; 1000-doc ranking exact")


def test_criterion_12_full_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(12)
    corpus = make_random_corpus(rng, n_docs=12)
    paths = []
    for name in ("run_a", "run_b"):
        build_small_index(corpus, tmp_path / name, max_span=3, seed=9, ivf_clusters=6)
        paths.append(tmp_path / name)
    for fname in sorted(p.name for p in paths[0].iterdir()):
        if fname == "manifest.json":
            a = json.loads((paths[0] / fname).read_text())
            b = json.loads((paths[1] / fname).read_text())
            a.pop("created_at")
            b.pop("created_at")
            assert a == b
        else:
            assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()

    index_a, index_b = load_index(paths[0]), load_index(paths[1])
    questions = [
        " ".join(f"w{int(w):03d}" for w in rng.integers(0, 40, size=3)) for _ in range(100)
    ]
    for text in questions:
        qa = embed_question(index_a, text)
        qb = embed_question(index_b, text)
        cfg = SearchConfig(strategy="hybrid", top_k=5, sparse_top_docs=3,
                           dense_top_starts=20, nprobe=2)
        ra = hybrid_search(index_a, index_a.ivf, qa, cfg)
        rb = hybrid_search(index_b, index_b.ivf, qb, cfg)
        assert [(r.span, r.score) for r in ra.results] == [(r.span, r.score) for r in rb.results]
    report(12, "two builds byte-identical (minus timestamp); 100 queries identical")


def test_criterion_13_learned_sparse_encoder():
    rng = np.random.default_rng(13)
    for trial in range(100):
        T = int(rng.integers(2, 9))
        d = int(rng.integers(2, 6))
        vocab = int(rng.integers(T, T + 10))
        dense = rng.normal(size=(T, d))
        ids = rng.integers(vocab, size=T)
        if trial % 2 == 0:
            qm = LinearMap(rng.normal(size=(d, d)))
            km = LinearMap(rng.normal(size=(d, d)))
        else:
            h = int(rng.integers(2, 7))
            qm = TwoLayerMap(rng.normal(size=(h, d)), rng.normal(size=(d, h)))
            km = TwoLayerMap(rng.normal(size=(h, d)), rng.normal(size=(d, h)))
        rows = learned_sparse_encode(dense, ids, vocab, qm, km)
        one_hot = np.zeros((T, vocab))
        one_hot[np.arange(T), ids] = 1.0
        expected = np.maximum(qm(dense) @ km(dense).T, 0.0) @ one_hot
        for t, row in enumerate(rows):
            assert (row.weights >= 0.0).all()
            materialized = np.zeros(vocab)
            materialized[row.bins] = row.weights
            np.testing.assert_allclose(materialized, expected[t], atol=1e-6)
    report(13, "100 instances: nonnegative, sparse path equals dense path")


def test_criterion_14_benchmark_harness(planted_suite):
    index = planted_suite.index
    questions = [(pq.query, pq.gold_answers) for pq in planted_suite.questions]
    cfg = SearchConfig(
        top_k=5, sparse_top_docs=PLANTED_HYBRID.sparse_top_docs,
        dense_top_starts=PLANTED_HYBRID.dense_top_starts, nprobe=PLANTED_HYBRID.nprobe,
    )
    reports = benchmark(index, questions, cfg, strategies=("exact", "sfs", "dfs", "hybrid"))
    for strategy, rep in reports.items():
        assert rep.latency_s is not None and rep.latency_s["p50"] >= 0.0
        assert rep.words_per_second is not None and rep.words_per_second > 0.0
        assert rep.docs_per_query is not None
        print(
            f"[benchmark] {strategy:>6}: s/Q p50 {rep.latency_s['p50'] * 1e3:8.2f} ms, "
            f"p95 {rep.latency_s['p95'] * 1e3:8.2f} ms, W/s {rep.words_per_second:12.0f}, "
            f"#D/Q {rep.docs_per_query:6.1f}, EM {rep.exact_match:.2f}"
        )
    assert reports["exact"].docs_per_query == index.n_docs
    assert reports["sfs"].docs_per_query <= cfg.sparse_top_docs
    report(14, "s/Q, W/s, #D/Q emitted for exact/sfs/dfs/hybrid")
