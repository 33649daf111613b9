"""Quantization, filter application, index build/load, and size arithmetic."""

import hashlib
import io
import itertools
import json
import os
import re
import stat
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import SMALL_CONFIG, build_small_index, make_random_corpus
from phraseindex.corpus import CorpusStore, Document, Paragraph, SpanRef
from phraseindex.dense import (
    PrecomputedEncoder,
    ToyEncoder,
    dense_score,
    phrase_dense,
    question_dense,
    write_embedding_file,
)
from phraseindex.index import (
    FORMAT_VERSION,
    SECTIONS,
    BuildConfig,
    _SectionReader,
    _write_lists,
    _write_narrow,
    apply_filter,
    build_index,
    dequantize,
    estimate_index_size,
    fit_quantization,
    load_index,
    quantize,
)
from phraseindex.search import (
    _TRAIN_PER_CELL,
    _assign,
    _para_sparse,
    kmeans_train,
    phrase_coherency,
)
from phraseindex.sparse import (
    NGRAM_BINS,
    SparseRows,
    SparseVector,
    add_vectors,
    build_inverted_index,
    combine_doc_para,
    fit_tfidf,
    token_counts,
)
from phraseindex.training import FilterModel


class TestQuantization:
    def test_grid_points_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        params = fit_quantization(rng.normal(size=(200, 5)) * np.array([1, 2, 0.5, 10, 0.01]))
        codes = np.tile(np.arange(-128, 128, dtype=np.int8)[:, None], (1, 5))
        values = dequantize(codes, params)
        np.testing.assert_array_equal(quantize(values, params), codes)

    def test_out_of_range_clamps(self):
        params = fit_quantization(np.array([[0.0], [1.0]]))
        assert quantize(np.array([[99.0]]), params)[0, 0] == 127
        assert quantize(np.array([[-99.0]]), params)[0, 0] == -128

    def test_round_trip_error_within_half_scale(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(500, 8)) * rng.uniform(0.1, 5.0, size=8)
        params = fit_quantization(sample)
        probe = rng.uniform(sample.min(axis=0), sample.max(axis=0), size=(1000, 8))
        err = np.abs(dequantize(quantize(probe, params), params) - probe)
        assert (err <= params.scales / 2 * (1 + 1e-9) + 1e-15).all()

    def test_constant_dimension_is_exact(self):
        sample = np.full((10, 3), 7.5)
        params = fit_quantization(sample)
        np.testing.assert_allclose(
            dequantize(quantize(sample, params), params), sample, atol=1e-12
        )


class TestApplyFilter:
    def test_threshold_zero_keeps_everything(self):
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        H = enc.encode_document([f"t{k}" for k in range(6)])
        smask, emask = apply_filter(H, FilterModel.keep_all(SMALL_CONFIG.boundary_dim))
        assert smask.all() and emask.all()

    def test_zero_weights_half_threshold_boundary_inclusive(self):
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        H = enc.encode_document([f"t{k}" for k in range(6)])
        model = FilterModel(
            np.zeros(SMALL_CONFIG.boundary_dim), 0.0,
            np.zeros(SMALL_CONFIG.boundary_dim), 0.0, threshold=0.5,
        )
        smask, emask = apply_filter(H, model)
        assert smask.all() and emask.all()

    def test_separable_weights_select_exactly_the_positives(self):
        rng = np.random.default_rng(2)
        from phraseindex.dense import TokenEncodingMatrix

        data = rng.normal(size=(20, SMALL_CONFIG.dim)) * 0.1
        positives = rng.integers(0, 2, size=20).astype(bool)
        data[positives, 0] += 5.0
        data[~positives, 0] -= 5.0
        H = TokenEncodingMatrix(data, SMALL_CONFIG)
        w = np.zeros(SMALL_CONFIG.boundary_dim)
        w[0] = 3.0
        model = FilterModel(w, 0.0, w, 0.0, threshold=0.5)
        smask, _ = apply_filter(H, model)
        np.testing.assert_array_equal(smask, positives)


class TestEstimateIndexSize:
    TB = 1e12

    def test_paper_scale_chain(self):
        est = estimate_index_size(60e9, 3e9, 480, survival_rate=5 / 12)
        assert est.naive_bytes == pytest.approx(240 * self.TB, rel=0.05)
        assert est.pointer_bytes == pytest.approx(12 * self.TB, rel=0.05)
        assert est.filtered_bytes == pytest.approx(5 * self.TB, rel=0.05)
        assert est.quantized_bytes == pytest.approx(1.2 * self.TB, rel=0.05)

    def test_naive_pointer_ratio_closed_form(self):
        est = estimate_index_size(60e9, 3e9, 480, survival_rate=0.5)
        assert est.naive_bytes / est.pointer_bytes == (60e9 * 961) / (2 * 3e9 * 480)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            estimate_index_size(0, 1, 1, 0.5)


class TestBuildIndex:
    def test_small_build_counts(self, tmp_path):
        corpus = CorpusStore(
            [Document("d1", "T", [Paragraph.from_text("alpha beta gamma")])]
        )
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        build_index(corpus, enc, None, tmp_path / "idx", BuildConfig(max_span=2))
        index = load_index(tmp_path / "idx")
        assert index.n_start_rows == 3
        assert index.n_end_rows == 3
        assert index.n_phrases == 5

    def test_discard_all_filter_is_an_error(self, tmp_path):
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("a b c")])])
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        reject_all = FilterModel(
            np.zeros(SMALL_CONFIG.boundary_dim), -50.0,
            np.zeros(SMALL_CONFIG.boundary_dim), -50.0, threshold=0.5,
        )
        with pytest.raises(ValueError, match="empty index"):
            build_index(corpus, enc, reject_all, tmp_path / "idx")

    def test_threshold_one_trips_empty_index_guard(self, tmp_path):
        # A sigmoid never reaches 1.0 with zero weights, so threshold 1.0
        # discards every token downstream.
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("a b c")])])
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        discard_all = FilterModel(
            np.zeros(SMALL_CONFIG.boundary_dim), 0.0,
            np.zeros(SMALL_CONFIG.boundary_dim), 0.0, threshold=1.0,
        )
        with pytest.raises(ValueError, match="empty index"):
            build_index(corpus, enc, discard_all, tmp_path / "idx2")

    def test_corpus_without_tokens_is_an_error(self, tmp_path):
        # Not "filter discarded every candidate phrase": there was none to discard.
        paragraphs = [Paragraph.from_text(" "), Paragraph.from_text("")]
        corpus = CorpusStore([Document("d1", "T", paragraphs)])
        with pytest.raises(ValueError, match="no tokens"):
            build_index(corpus, ToyEncoder(SMALL_CONFIG), None, tmp_path / "idx")

    def test_existing_directory_rejected(self, tmp_path):
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("a b")])])
        (tmp_path / "idx").mkdir()
        with pytest.raises(FileExistsError):
            build_index(corpus, ToyEncoder(SMALL_CONFIG), None, tmp_path / "idx")

    def test_indexed_scores_match_float_pipeline_within_bound(self, tmp_path):
        rng = np.random.default_rng(3)
        corpus = make_random_corpus(rng, n_docs=20)
        enc = ToyEncoder(SMALL_CONFIG, seed=7)
        index = build_small_index(corpus, tmp_path / "idx", max_span=3, encoder=enc)
        q = question_dense(enc.encode_question([f"q{k}" for k in range(4)]))

        _, _, heads, tails = index.code_arrays()
        checked = 0
        for para_row in range(len(index.para_table)):
            row = index.para_table[para_row]
            doc = corpus.doc_by_ordinal(int(row["doc"]))
            para = doc.paragraphs[int(row["para"])]
            H = enc.encode_document(para.tokens)
            rec_lo = int(row["rec_begin"])
            for r in range(rec_lo, rec_lo + int(row["n_recs"])):
                a_hat = index.dequant_start_rows(np.array([r]))[0]
                first = int(index.rec_end_row[r])
                for e in range(first, first + int(index.rec_n_ends[r])):
                    b_hat = index.dequant_end_rows(np.array([e]))[0]
                    indexed = (
                        float(a_hat @ q.start)
                        + float(b_hat @ q.end)
                        + q.coherency * float(phrase_coherency(heads[r], tails[e]))
                    )
                    exact = dense_score(
                        q, phrase_dense(H, int(index.rec_tok[r]), int(index.end_tok[e]))
                    )
                    bound = (
                        float(np.abs(q.start) @ (index.start_quant.scales / 2))
                        + float(np.abs(q.end) @ (index.end_quant.scales / 2))
                        + abs(q.coherency) * 1e-5
                        + 1e-6
                    )
                    assert abs(indexed - exact) <= bound
                    checked += 1
        assert checked > 100


class TestLoadIndex:
    def test_round_trip_counts(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus = make_random_corpus(rng, n_docs=6)
        index = build_small_index(corpus, tmp_path / "idx")
        assert index.counts["docs"] == 6
        assert index.counts["tokens"] == corpus.total_tokens()
        assert index.n_start_rows == index.counts["surviving_start_tokens"]

    def test_the_manifest_holds_only_its_pinned_keys(self, tmp_path):
        # A key that the build writes and nothing reads cannot come back.
        build_small_index(make_random_corpus(np.random.default_rng(4), n_docs=3), tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert sorted(manifest) == sorted(
            ["format_version", "created_at", "encoder", "max_span", "seed", "counts", "sections"]
        )

    @pytest.mark.parametrize("count", ["paragraphs", "start_rows", "end_rows",
                                       "surviving_start_tokens", "surviving_end_tokens", "phrases"])
    def test_manifest_counts_must_be_what_open_derives(self, tmp_path, count):
        # The manifest has no checksum, and /health reports its counts.
        build_small_index(make_random_corpus(np.random.default_rng(6), n_docs=4), tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["counts"][count] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest.json under .*: counts {count} "):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("count", ["paragraphs", "start_rows", "end_rows",
                                       "surviving_start_tokens", "surviving_end_tokens", "phrases"])
    def test_a_derived_count_of_true_is_refused(self, tmp_path, count):
        # Every count of a one-token index is 1, and true == 1 in
        # Python: a bool must be refused before open compares the counts.
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("alpha")])])
        index = build_small_index(corpus, tmp_path / "idx", ivf_clusters=1)
        assert set(index.counts.values()) == {1}
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["counts"][count] = True
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest.json under .*: counts "):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize(
        "bad", ["20", True, 0, -1, None], ids=["string", "true", "0", "-1", "null"]
    )
    def test_manifest_max_span_must_be_a_positive_integer(self, tmp_path, bad):
        # The manifest has no checksum; "20" used to fail inside numpy, and
        # true to open as a max_span of 1.
        build_small_index(make_random_corpus(np.random.default_rng(6), n_docs=4), tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["max_span"] = bad
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest.json under .*: max_span .* not a positive"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("case", [
        "not JSON", "a list", "no sections", "sections a list", "a section without bytes",
        "no counts", "counts without docs", "counts without tokens", "tokens a string", "tokens true",
    ])
    def test_a_malformed_manifest_is_one_error_naming_it(self, tmp_path, case):
        # The manifest has no checksum; each of these used to fail with an
        # error that did not name it, or with an AttributeError, a KeyError or
        # a TypeError.
        build_small_index(make_random_corpus(np.random.default_rng(6), n_docs=4), tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if case == "a list":
            manifest = [manifest]
        elif case == "no sections":
            del manifest["sections"]
        elif case == "sections a list":
            manifest["sections"] = list(manifest["sections"].values())
        elif case == "a section without bytes":
            del manifest["sections"]["starts.bin"]["bytes"]
        elif case == "no counts":
            del manifest["counts"]
        elif case.startswith("counts without"):
            del manifest["counts"][case.split()[-1]]
        elif case.startswith("tokens"):
            tokens = manifest["counts"]["tokens"]
            manifest["counts"]["tokens"] = str(tokens) if case == "tokens a string" else True
        text = json.dumps(manifest)
        manifest_path.write_text(text[:1] if case == "not JSON" else text)
        with pytest.raises(ValueError, match=r"manifest.json under .*: "):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_a_flipped_byte_fails_the_section_checksum(self, tmp_path, name):
        # The manifest is not resealed, so only the checksum can catch it.
        build_small_index(make_random_corpus(np.random.default_rng(6), n_docs=4), tmp_path / "idx")
        path = tmp_path / "idx" / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"section {re.escape(name)}: checksum mismatch"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_a_deleted_section_is_a_missing_file(self, tmp_path, name):
        build_small_index(make_random_corpus(np.random.default_rng(6), n_docs=4), tmp_path / "idx")
        (tmp_path / "idx" / name).unlink()
        with pytest.raises(ValueError, match=f"section {re.escape(name)}: missing file"):
            load_index(tmp_path / "idx")

    def test_truncated_section_names_the_file(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = make_random_corpus(rng, n_docs=4)
        build_small_index(corpus, tmp_path / "idx")
        starts = tmp_path / "idx" / "starts.bin"
        starts.write_bytes(starts.read_bytes()[:-4])
        with pytest.raises(ValueError, match="starts.bin"):
            load_index(tmp_path / "idx")

    def test_version_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(6)
        corpus = make_random_corpus(rng, n_docs=4)
        build_small_index(corpus, tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_index(tmp_path / "idx")

    def test_concurrent_handles_agree(self, tmp_path):
        rng = np.random.default_rng(7)
        corpus = make_random_corpus(rng, n_docs=5)
        build_small_index(corpus, tmp_path / "idx")
        from phraseindex.search import SearchConfig, embed_question, exact_search

        a = load_index(tmp_path / "idx")
        b = load_index(tmp_path / "idx")
        qa = embed_question(a, "where is w001 w002")
        qb = embed_question(b, "where is w001 w002")
        ra = exact_search(a, qa, SearchConfig(strategy="exact", top_k=5))
        rb = exact_search(b, qb, SearchConfig(strategy="exact", top_k=5))
        assert [(r.span, r.score) for r in ra.results] == [(r.span, r.score) for r in rb.results]

    def test_span_text_accessor(self, tmp_path):
        corpus = CorpusStore(
            [Document("d1", "T", [Paragraph.from_text("alpha beta gamma")])]
        )
        index = build_small_index(corpus, tmp_path / "idx", max_span=2)
        assert index.span_text(SpanRef("d1", 0, 0, 1)) == "alpha beta"


class TestDedupAccounting:
    def test_keep_all_build(self, tmp_path):
        rng = np.random.default_rng(8)
        corpus = make_random_corpus(rng, n_docs=8)
        index = build_small_index(corpus, tmp_path / "idx")
        counts = index.counts
        # Keep-all: both masks cover every token, so the stored rows are
        # exactly two per surviving token regardless of phrase count.
        assert counts["surviving_start_tokens"] == counts["surviving_end_tokens"] == counts["tokens"]
        assert index.n_start_rows + index.n_end_rows == 2 * counts["tokens"]
        assert index.n_phrases > counts["tokens"]

    def test_trained_filter_build(self, tmp_path):
        rng = np.random.default_rng(9)
        corpus = make_random_corpus(rng, n_docs=8)
        enc = ToyEncoder(SMALL_CONFIG, seed=1)
        w = rng.normal(size=SMALL_CONFIG.boundary_dim)
        model = FilterModel(w, 0.2, w.copy(), 0.2, threshold=0.5)
        index = build_small_index(corpus, tmp_path / "idx", encoder=enc, filter_model=model)
        counts = index.counts
        assert 0 < counts["surviving_start_tokens"] < counts["tokens"]
        assert index.n_start_rows == counts["surviving_start_tokens"]
        assert index.n_end_rows == counts["surviving_end_tokens"]
        # Every stored phrase's boundary tokens must have survived.
        assert (index.rec_n_ends >= 0).all()
        assert int(index.rec_n_ends.sum()) == index.n_phrases


class TestDeterminism:
    def test_same_seed_builds_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        corpus = make_random_corpus(rng, n_docs=6)
        build_small_index(corpus, tmp_path / "a", seed=3)
        build_small_index(corpus, tmp_path / "b", seed=3)
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            if name == "manifest.json":
                ma = json.loads((tmp_path / "a" / name).read_text())
                mb = json.loads((tmp_path / "b" / name).read_text())
                ma.pop("created_at")
                mb.pop("created_at")
                assert ma == mb
            else:
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _reference_phrase_table(corpus, encoder, filter_model, max_span):
    """Paragraph rows, start records and, per record, its phrases' (end
    token, end row, coherency), enumerated one phrase at a time."""
    paras, recs, phrases = [], [], []
    next_end_row = 0
    for ord_, doc, pidx, para in corpus.iter_paragraphs():
        H = encoder.encode_document(para.tokens, key=f"{doc.id}/{pidx}")
        smask, emask = apply_filter(H, filter_model)
        end_row = {}
        for t in range(para.n_tokens):
            if emask[t]:
                end_row[t] = next_end_row
                next_end_row += 1
        pair = H.coh_head_cols @ H.coh_tail_cols.T
        rec_begin = len(recs)
        for i in range(para.n_tokens):
            if not smask[i]:
                continue
            ends = [
                (j, end_row[j], np.float32(pair[i, j]))
                for j in range(i, min(i + max_span, para.n_tokens))
                if emask[j]
            ]
            recs.append((ord_, pidx, i, len(ends)))
            phrases.append(ends)
        paras.append((ord_, pidx, rec_begin, len(recs) - rec_begin, para.n_tokens))
    return paras, recs, phrases


class TestPhraseTable:
    MAX_SPAN = 4

    def _filtered_build(self, tmp_path):
        # Column 0 of the start and of the end slice decides survival, so each
        # paragraph's survival pattern is set by hand: (start, end) flags per token.
        rng = np.random.default_rng(12)
        b = SMALL_CONFIG.boundary_dim
        patterns = {
            "d0/0": ("1011011101", "1101101011"),  # longer than max_span
            "d0/1": ("101", "011"),  # shorter than max_span
            "d1/0": ("1", "1"),  # one token
            "d1/1": ("000000", "110101"),  # no surviving start
            "d2/0": ("111011", "000000"),  # starts, but no surviving end
            "d2/1": ("01100111", "10011100"),
        }
        records, docs = {}, {}
        for key, (starts, ends) in patterns.items():
            rows = 0.1 * rng.normal(size=(len(starts), SMALL_CONFIG.dim))
            rows[:, 0] = [3.0 if c == "1" else -3.0 for c in starts]
            rows[:, b] = [3.0 if c == "1" else -3.0 for c in ends]
            records[key] = rows
            doc_id = key.split("/")[0]
            text = " ".join(f"{doc_id}w{t}" for t in range(len(starts)))
            docs.setdefault(doc_id, []).append(Paragraph.from_text(text))
        corpus = CorpusStore([Document(d, d, paras) for d, paras in docs.items()])
        write_embedding_file(tmp_path / "emb.bin", records, SMALL_CONFIG.dim)
        encoder = PrecomputedEncoder(tmp_path / "emb.bin", SMALL_CONFIG)
        w = np.zeros(b)
        w[0] = 2.0
        model = FilterModel(w, 0.0, w.copy(), 0.0, threshold=0.5)
        index = build_small_index(
            corpus, tmp_path / "idx", max_span=self.MAX_SPAN, ivf_clusters=3,
            encoder=encoder, filter_model=model,
        )
        return corpus, encoder, model, index

    def test_matches_one_phrase_at_a_time_enumeration(self, tmp_path):
        corpus, encoder, model, index = self._filtered_build(tmp_path)
        paras, recs, phrases = _reference_phrase_table(corpus, encoder, model, self.MAX_SPAN)
        assert index.para_table.tolist() == paras
        table = index.para_table
        rec_para = index.rec_para
        assert list(zip(table["doc"][rec_para].tolist(), table["para"][rec_para].tolist(),
                        index.rec_tok.tolist(), index.rec_n_ends.tolist())) == recs
        # Phrase (r, t) ends at end row rec_end_row[r] + t.
        _, _, heads, tails = index.code_arrays()
        for r, ends in enumerate(phrases):
            rows = int(index.rec_end_row[r]) + np.arange(len(ends))
            assert [(j, row) for j, row, _ in ends] == list(
                zip(index.end_tok[rows].tolist(), rows.tolist())
            )
            got = phrase_coherency(heads[r], tails[rows])
            assert np.array_equal(got, np.array([c for _, _, c in ends], dtype="<f4"))
        assert index.n_phrases == sum(map(len, phrases)) > 0
        # The corpus reaches every edge it was written for.
        assert ((table["n_tokens"] < self.MAX_SPAN) & (table["n_tokens"] > 1)).any()
        assert (table["n_tokens"] == 1).any()
        assert ((table["n_recs"] == 0) & (table["n_tokens"] > 1)).any()
        d2 = int(np.flatnonzero(table["doc"] == 2)[0])
        lo, n = int(table[d2]["rec_begin"]), int(table[d2]["n_recs"])
        assert n > 0 and (index.rec_n_ends[lo : lo + n] == 0).all()


def _rewrite_section(index_dir, name, data):
    """Replace a section and its manifest entry, so that only the section's
    own structure checks can catch the change."""
    (index_dir / name).write_bytes(data)
    manifest_path = index_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sections"][name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    manifest_path.write_text(json.dumps(manifest))


def _narrow(values) -> bytes:
    """A narrow array, packed one value at a time at the least width of
    1, 2, 4 and 8 bytes that holds the largest."""
    values = [int(v) for v in values]
    width = next(w for w in (1, 2, 4, 8) if max(values, default=0) < 256**w)
    return struct.pack("<QB", width * len(values), width) + b"".join(
        v.to_bytes(width, "little") for v in values
    )


def _gaps(lists) -> list[int]:
    """Each list's first value, then each later value less the one before it."""
    return [v - (lst[k - 1] if k else 0) for lst in lists for k, v in enumerate(lst)]


def _list_set(lists) -> bytes:
    """A list set: the list lengths, then the d-gaps, each as a narrow array."""
    return _narrow([len(lst) for lst in lists]) + _narrow(_gaps(lists))


def _parse_narrow(raw, at) -> tuple[list[int], int]:
    """The values of the narrow array at raw[at:], and where it ends."""
    nbytes, width = struct.unpack_from("<QB", raw, at)
    at += 9
    values = [int.from_bytes(raw[i : i + width], "little") for i in range(at, at + nbytes, width)]
    return values, at + nbytes


def _parse_list_set(raw, at) -> tuple[list[list[int]], int]:
    """The lists of the list set at raw[at:], and where it ends."""
    lengths, at = _parse_narrow(raw, at)
    gaps, at = _parse_narrow(raw, at)
    starts = [0, *itertools.accumulate(lengths)]
    return [list(itertools.accumulate(gaps[a:b])) for a, b in zip(starts, starts[1:])], at


def _section_file(tmp_path, payload: bytes) -> _SectionReader:
    """A reader over a postings.bin that holds payload after its header."""
    path = tmp_path / "postings.bin"
    path.write_bytes(b"PIDX" + b"PSTG" + struct.pack("<I", FORMAT_VERSION) + payload)
    return _SectionReader(path, b"PSTG")


class TestCodec:
    """The narrow array and the list set, which store every list of ids."""

    @pytest.mark.parametrize("top, width", [
        (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8),
    ])
    def test_the_width_is_the_least_that_holds_the_largest(self, tmp_path, top, width):
        values = np.array([0, 7, top], dtype=np.int64)
        out = io.BytesIO()
        _write_narrow(out, values)
        assert out.getvalue() == _narrow(values) and out.getvalue()[8] == width
        got = _section_file(tmp_path, out.getvalue()).narrow()
        assert got.dtype == np.int64 and got.tolist() == values.tolist()

        lists = [[top], [0, 7, top]]  # gaps of top and of top - 7
        out = io.BytesIO()
        _write_lists(out, np.array([0, 1, 4]), np.array([top, 0, 7, top]))
        assert out.getvalue() == _list_set(lists)
        offsets, values = _section_file(tmp_path, out.getvalue()).lists("ids", top + 1)
        assert offsets.tolist() == [0, 1, 4] and values.tolist() == [top, 0, 7, top]

    @pytest.mark.parametrize("lists", [
        [], [[]], [[2, 5, 9]], [[], [3, 5], [], [], [0, 7, 8, 9], []], [[4], [1], [0]],
    ], ids=["no lists", "one empty list", "a single list", "empty lists among others",
            "lists of one"])
    def test_list_sets_round_trip(self, tmp_path, lists):
        offsets = np.array([0, *itertools.accumulate(map(len, lists))], dtype=np.int64)
        values = np.array([v for lst in lists for v in lst], dtype=np.int64)
        out = io.BytesIO()
        _write_lists(out, offsets, values)
        assert out.getvalue() == _list_set(lists)
        got_offsets, got_values = _section_file(tmp_path, out.getvalue()).lists("ids", 10)
        assert got_offsets.tolist() == offsets.tolist() and got_values.tolist() == values.tolist()

    def test_an_empty_array_is_its_count_and_width(self, tmp_path):
        out = io.BytesIO()
        _write_narrow(out, np.array([], dtype=np.int64))
        assert out.getvalue() == struct.pack("<QB", 0, 1)
        assert _section_file(tmp_path, out.getvalue()).narrow().tolist() == []

    @pytest.mark.parametrize("payload, why", [
        (struct.pack("<QB", 6, 3) + bytes(6), "6 bytes of 3-byte values"),
        (struct.pack("<QB", 3, 2) + bytes(3), "3 bytes of 2-byte values"),
        (_narrow([2, 1]) + _narrow([1, 2]), "lengths add up to 3, not 2"),
        (_narrow([1]), "truncated"),
    ], ids=["width 3", "byte count not a multiple of the width", "lengths not the value count",
            "cut short"])
    def test_refusals_name_the_section(self, tmp_path, payload, why):
        with pytest.raises(ValueError, match=f"section postings.bin: .*{why}"):
            _section_file(tmp_path, payload).lists("ids", 10)

    @pytest.mark.parametrize("lists", [
        [[3, 3]], [[1], [4, 2]], [[10]], [[0, 2**63]], [[2**63]], [[2**64 - 1]],
    ], ids=["repeat", "descent", "at the limit", "gap of 2**63", "head of 2**63", "head of 2**64 - 1"])
    def test_checked_lists_must_ascend_within_the_limit(self, tmp_path, lists):
        # A u8 gap of 2**63 or more is negative as int64; it is refused, not wrapped.
        payload = _narrow([len(lst) for lst in lists]) + _narrow(
            [v % 2**64 for v in _gaps(lists)]
        )
        with pytest.raises(ValueError, match="section postings.bin: ids must ascend .*below 10"):
            _section_file(tmp_path, payload).lists("ids", 10)


@pytest.mark.parametrize("section", sorted(SECTIONS - {"corpus.jsonl"}))
def test_a_section_with_a_byte_past_its_end_is_refused_by_name(tmp_path, section):
    build_small_index(make_random_corpus(np.random.default_rng(29), n_docs=4), tmp_path / "idx")
    raw = (tmp_path / "idx" / section).read_bytes()
    _rewrite_section(tmp_path / "idx", section, raw + b"\0")
    with pytest.raises(ValueError, match=re.escape(section)):
        load_index(tmp_path / "idx")


def test_a_corpus_missing_a_document_is_refused(tmp_path):
    # A corpus.jsonl cut at a line end is still valid JSON lines.
    build_small_index(make_random_corpus(np.random.default_rng(28), n_docs=4), tmp_path / "idx")
    lines = (tmp_path / "idx" / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    _rewrite_section(tmp_path / "idx", "corpus.jsonl", b"".join(lines[:-1]))
    with pytest.raises(ValueError, match="section corpus.jsonl: 3 documents, not 4"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("cut", ["last bytes", "half"])
@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_a_section_cut_short_is_refused_by_name(tmp_path, section, cut):
    # Every section is read through length-checked reads, so a cut one is a
    # ValueError that names it even when the manifest has been rewritten to match.
    corpus = make_random_corpus(np.random.default_rng(27), n_docs=4, paras_per_doc=(1, 3))
    build_small_index(corpus, tmp_path / "idx")
    raw = (tmp_path / "idx" / section).read_bytes()
    _rewrite_section(tmp_path / "idx", section, raw[: -2 if cut == "last bytes" else len(raw) // 2])
    with pytest.raises(ValueError, match=re.escape(section)):
        load_index(tmp_path / "idx")


class TestPhrasesSection:
    def test_size_does_not_depend_on_max_span(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(15), n_docs=6)
        short = build_small_index(corpus, tmp_path / "short", max_span=2)
        long = build_small_index(corpus, tmp_path / "long", max_span=20)
        assert long.n_phrases > 2 * short.n_phrases
        assert (tmp_path / "short" / "phrases.bin").stat().st_size == (
            tmp_path / "long" / "phrases.bin"
        ).stat().st_size

    @pytest.fixture
    def keep_all_dir(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(16), n_docs=5)
        index = build_small_index(corpus, tmp_path / "idx")
        # Header, the paragraphs' documents and token counts: the start mask follows.
        raw = (tmp_path / "idx" / "phrases.bin").read_bytes()
        docs, at = _parse_narrow(raw, 12)
        lengths, at = _parse_narrow(raw, at)
        assert docs == index.para_table["doc"].tolist() and sum(lengths) == corpus.total_tokens()
        return tmp_path / "idx", at, -(-index.counts["tokens"] // 8)

    @pytest.mark.parametrize("keep", [14, 40, -1])
    def test_cut_short_names_the_file(self, keep_all_dir, keep):
        index_dir, _, _ = keep_all_dir
        raw = (index_dir / "phrases.bin").read_bytes()
        _rewrite_section(index_dir, "phrases.bin", raw[:keep])
        with pytest.raises(ValueError, match="phrases.bin"):
            load_index(index_dir)

    @pytest.mark.parametrize("mask", ["start", "end"])
    def test_mask_sum_must_match_the_stored_rows(self, keep_all_dir, mask):
        # A mask's sum is its side's row count, so a flipped bit leaves the
        # code section one row longer than open derives.
        index_dir, start_mask_at, mask_bytes = keep_all_dir
        raw = bytearray((index_dir / "phrases.bin").read_bytes())
        raw[start_mask_at + (mask_bytes if mask == "end" else 0)] ^= 0x80  # token 0's bit
        _rewrite_section(index_dir, "phrases.bin", bytes(raw))
        with pytest.raises(ValueError, match=f"section {mask}s?.bin: .* bytes, expected"):
            load_index(index_dir)

    @pytest.mark.parametrize("case", ["document out of order", "document past the corpus",
                                      "token count one more", "token count one less",
                                      "token count missing"])
    def test_paragraph_documents_and_token_counts_must_agree(self, keep_all_dir, case):
        # The rest of the paragraph table is derived from these two columns.
        index_dir, masks_at, _ = keep_all_dir
        raw = (index_dir / "phrases.bin").read_bytes()
        docs, at = _parse_narrow(raw, 12)
        lengths, _ = _parse_narrow(raw, at)
        assert raw[12:masks_at] == _narrow(docs) + _narrow(lengths)
        if case == "document out of order":
            docs[0] = docs[-1]
        elif case == "document past the corpus":
            docs[-1] = 5
        elif case == "token count missing":  # the last two paragraphs' counts in one
            last = lengths.pop()
            lengths[-1] += last
        else:
            lengths[0] += 1 if case == "token count one more" else -1
        _rewrite_section(
            index_dir, "phrases.bin", raw[:12] + _narrow(docs) + _narrow(lengths) + raw[masks_at:]
        )
        why = "document order" if case.startswith("document") else "token count"
        with pytest.raises(ValueError, match=f"phrases.bin.*{why}"):
            load_index(index_dir)


class TestCoherencySection:
    @pytest.fixture
    def index_dir(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(20), n_docs=5)
        build_small_index(corpus, tmp_path / "idx")
        return tmp_path / "idx"

    def _rewrite(self, index_dir, edit):
        raw = bytearray((index_dir / "coherency.bin").read_bytes())
        edit(raw)
        _rewrite_section(index_dir, "coherency.bin", bytes(raw))

    @pytest.mark.parametrize("cut", [4, 1, "header"])
    def test_truncated_section(self, index_dir, cut):
        def edit(raw):
            del raw[12 + 6 if cut == "header" else -cut :]  # the header ends at byte 20

        self._rewrite(index_dir, edit)
        with pytest.raises(ValueError, match="coherency.bin.*(truncated|expected)"):
            load_index(index_dir)

    @pytest.mark.parametrize("case", ["one row short", "one row more"])
    def test_wrong_row_count(self, index_dir, case):
        # One head row per start row and one tail row per end row: the mask sums.
        row = 4 * SMALL_CONFIG.coherency_dim

        def edit(raw):
            if case == "one row short":
                del raw[-row:]
            else:
                raw += raw[-row:]

        self._rewrite(index_dir, edit)
        with pytest.raises(ValueError, match="section coherency.bin: .* bytes, expected"):
            load_index(index_dir)

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width(self, index_dir, width):
        # The rows are coherency_dim wide, as encoder.bin gives it.
        def edit(raw):
            rows = np.frombuffer(bytes(raw[20:]), "<f4").reshape(-1, SMALL_CONFIG.coherency_dim)
            wide = np.zeros((len(rows), width), "<f4")
            n = min(width, SMALL_CONFIG.coherency_dim)
            wide[:, :n] = rows[:, :n]
            raw[20:] = wide.tobytes()

        self._rewrite(index_dir, edit)
        with pytest.raises(ValueError, match="section coherency.bin: .* bytes, expected"):
            load_index(index_dir)


class TestIvfSection:
    @pytest.fixture
    def index_dir(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(21), n_docs=5)
        build_small_index(corpus, tmp_path / "idx", ivf_clusters=4)
        return tmp_path / "idx"

    def _rewrite(self, index_dir, edit):
        """Rewrite ivf.bin with its cells' list set replaced by the bytes
        edit(cells) returns, cells being each cell's rows."""
        raw = (index_dir / "ivf.bin").read_bytes()
        (n_clusters,) = struct.unpack("<I", raw[12:16])
        at = 16 + 4 * n_clusters * SMALL_CONFIG.boundary_dim  # the cells follow the centroids
        cells, end = _parse_list_set(raw, at)
        assert len(cells) == n_clusters and all(cells) and raw[at:] == _list_set(cells)
        _rewrite_section(index_dir, "ivf.bin", raw[:at] + edit(cells))

    @pytest.mark.parametrize("case", ["one short", "one more", "last short of the rows"])
    def test_cell_offsets(self, index_dir, case):
        def edit(cells):
            if case == "one short":
                return _list_set(cells[:-2] + [sorted(cells[-2] + cells[-1])])
            if case == "one more":
                return _list_set(cells + [[]])
            lengths = [len(c) for c in cells]
            lengths[-1] -= 1
            return _narrow(lengths) + _narrow(_gaps(cells))

        self._rewrite(index_dir, edit)
        with pytest.raises(ValueError, match="ivf.bin.*(cells|lengths)"):
            load_index(index_dir)

    @pytest.mark.parametrize("case", ["row past the start rows", "row in two cells",
                                      "one row more"])
    def test_each_start_row_in_one_cell(self, index_dir, case):
        def edit(cells):
            if case == "row past the start rows":
                cells[0][-1] = 10**9
            elif case == "row in two cells":
                cells[-1] = sorted(cells[-1][:-1] + [cells[0][0]])
            else:
                cells[-1] = sorted(cells[-1] + [cells[0][0]])
            return _list_set(cells)

        self._rewrite(index_dir, edit)
        with pytest.raises(ValueError, match="ivf.bin.*start rows"):
            load_index(index_dir)

    def test_centroid_width(self, index_dir):
        # Centroids one value wider than encoder.bin's boundary_dim put the
        # cells where open does not read them.
        raw = (index_dir / "ivf.bin").read_bytes()
        (n_clusters,) = struct.unpack("<I", raw[12:16])
        at = 16 + 4 * n_clusters * SMALL_CONFIG.boundary_dim
        centroids = np.frombuffer(raw[16:at], "<f4").reshape(n_clusters, -1)
        wide = np.hstack([centroids, np.ones((n_clusters, 1), "<f4")])
        _rewrite_section(index_dir, "ivf.bin", raw[:16] + wide.tobytes() + raw[at:])
        with pytest.raises(ValueError, match="section ivf.bin: "):
            load_index(index_dir)


# The bytes of one row of each section read at a shape open derives: a code
# row, one quantization value, a coherency row, and one centroid of ivf.bin.
_ROW_BYTES = {
    "starts.bin": SMALL_CONFIG.boundary_dim,
    "ends.bin": SMALL_CONFIG.boundary_dim,
    "quant.bin": 8,
    "coherency.bin": 4 * SMALL_CONFIG.coherency_dim,
    "ivf.bin": 4 * SMALL_CONFIG.boundary_dim,
}


@pytest.mark.parametrize("change", ["one short", "one more"])
@pytest.mark.parametrize("section", sorted(_ROW_BYTES))
def test_a_section_one_row_off_its_derived_shape_is_refused_by_name(tmp_path, section, change):
    # encoder.bin gives every width and phrases.bin's masks every row count.
    # ivf.bin's cells follow its centroids, and stay as stored.
    index_dir = tmp_path / "idx"
    corpus = make_random_corpus(np.random.default_rng(30), n_docs=4)
    build_small_index(corpus, index_dir, ivf_clusters=4)
    raw = (index_dir / section).read_bytes()
    # The centroids of the 4 cells end 4 rows past ivf.bin's 16-byte header.
    at = 16 + 4 * _ROW_BYTES["ivf.bin"] if section == "ivf.bin" else len(raw)
    row = _ROW_BYTES[section]
    edited = raw[: at - row] if change == "one short" else raw[:at] + raw[at - row : at]
    _rewrite_section(index_dir, section, edited + raw[at:])
    with pytest.raises(ValueError, match=f"section {re.escape(section)}: "):
        load_index(index_dir)


def test_a_quant_section_one_dimension_narrower_is_refused_at_open(tmp_path):
    # Its width is encoder.bin's: opened, a narrower quant.bin would fail
    # every query with a shape error.
    index_dir = tmp_path / "idx"
    build_small_index(make_random_corpus(np.random.default_rng(31), n_docs=4), index_dir)
    raw = (index_dir / "quant.bin").read_bytes()
    params = np.frombuffer(raw[12:], "<f8").reshape(4, SMALL_CONFIG.boundary_dim)
    _rewrite_section(index_dir, "quant.bin", raw[:12] + params[:, :-1].tobytes())
    with pytest.raises(ValueError, match="section quant.bin: "):
        load_index(index_dir)


@pytest.mark.parametrize("section", sorted(SECTIONS) + ["extra.bin", "filter.bin"])
def test_manifest_must_list_exactly_the_format_sections(tmp_path, section):
    # Open checksums the sections the manifest lists, so a section left out
    # of it would be read unchecked; it and a section the format does not
    # define, such as format 7's filter.bin, are refused by name.
    build_small_index(make_random_corpus(np.random.default_rng(22), n_docs=4), tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if section in SECTIONS:
        del manifest["sections"][section]
    else:
        (tmp_path / "idx" / section).write_bytes(b"")
        manifest["sections"][section] = {"bytes": 0, "sha256": hashlib.sha256(b"").hexdigest()}
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest.json.* section {re.escape(section)}"):
        load_index(tmp_path / "idx")


class TestSparseBinsAtOpen:
    @pytest.fixture
    def index_dir(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(18), n_docs=5)
        index = build_small_index(corpus, tmp_path / "idx")
        return tmp_path / "idx", len(index.para_table)

    @staticmethod
    def _rewrite_lists(index_dir, name, at, edit):
        """Rewrite the list set at byte `at` of section name with edit(lists)."""
        raw = (index_dir / name).read_bytes()
        lists, end = _parse_list_set(raw, at)
        assert raw[at:end] == _list_set(lists)
        edit(lists)
        _rewrite_section(index_dir, name, raw[:at] + _list_set(lists) + raw[end:])

    @staticmethod
    def _paragraph_postings_at(index_dir, n_para) -> int:
        """Where sparse_docs.bin's paragraph postings begin: after the idf-0
        bins, their dfs and a float32 per paragraph."""
        raw = (index_dir / "sparse_docs.bin").read_bytes()
        _, at = _parse_list_set(raw, 12)
        _, at = _parse_narrow(raw, at)
        return at + 4 * n_para

    # A gap of 0 repeats the bin before it; a gap of NGRAM_BINS leaves the bin space, and
    # so the ranks of the document bins, which paragraph bins are stored as.
    @pytest.mark.parametrize("value", [NGRAM_BINS, 0])
    def test_paragraph_bins_must_ascend_below_the_bin_space(self, index_dir, value):
        index_dir, n_para = index_dir

        def edit(lists):
            (bins,) = lists
            bins[-1] = bins[-2] + value

        self._rewrite_lists(
            index_dir, "sparse_docs.bin", self._paragraph_postings_at(index_dir, n_para), edit
        )
        with pytest.raises(ValueError, match="sparse_docs.bin.*bins"):
            load_index(index_dir)

    @pytest.mark.parametrize("case", ["past the paragraphs", "repeated"])
    def test_paragraph_ordinals_must_ascend_below_the_paragraph_count(self, index_dir, case):
        index_dir, n_para = index_dir
        raw = (index_dir / "sparse_docs.bin").read_bytes()
        _, at = _parse_list_set(raw, self._paragraph_postings_at(index_dir, n_para))

        def edit(lists):
            paras = next(lst for lst in lists if len(lst) > 1)
            paras[-1] = n_para if case == "past the paragraphs" else paras[-2]

        self._rewrite_lists(index_dir, "sparse_docs.bin", at, edit)
        with pytest.raises(
            ValueError,
            match=f"section sparse_docs.bin: paragraph ordinals .*below {n_para}",
        ):
            load_index(index_dir)

    @pytest.mark.parametrize("case", ["at the document count", "repeated"])
    def test_posting_documents_must_ascend_below_the_document_count(self, index_dir, case):
        # A document ordinal past the corpus used to open, and a query for its
        # bin then raised IndexError in the search.
        index_dir, _ = index_dir
        raw = (index_dir / "postings.bin").read_bytes()
        _, at = _parse_list_set(raw, 12)

        def edit(lists):
            docs = next(lst for lst in lists if len(lst) > 1)
            docs[-1] = 5 if case == "at the document count" else docs[-2]

        self._rewrite_lists(index_dir, "postings.bin", at, edit)
        with pytest.raises(
            ValueError, match="section postings.bin: document ordinals .*below 5"
        ):
            load_index(index_dir)

    @pytest.mark.parametrize("value", [NGRAM_BINS, 0])
    def test_idf_zero_bins_must_ascend_below_the_bin_space(self, index_dir, value):
        index_dir, _ = index_dir

        def edit(lists):
            (zero,) = lists
            assert len(zero) >= 2  # a gap of 0 in the last bin repeats the one before it
            zero[-1] = zero[-2] + value

        self._rewrite_lists(index_dir, "sparse_docs.bin", 12, edit)
        with pytest.raises(ValueError, match="sparse_docs.bin.*bins"):
            load_index(index_dir)

    def test_postings_need_one_list_per_bin(self, index_dir):
        index_dir, _ = index_dir
        raw = (index_dir / "postings.bin").read_bytes()
        _, at = _parse_list_set(raw, 12)

        def edit(lists):
            lists[-2:] = [sorted(lists[-2] + lists[-1])]

        self._rewrite_lists(index_dir, "postings.bin", at, edit)
        with pytest.raises(ValueError, match="postings.bin.*one posting list each"):
            load_index(index_dir)

    def test_posting_bins_must_stay_below_the_bin_space(self, index_dir):
        index_dir, _ = index_dir

        def edit(lists):
            lists[0][-1] = NGRAM_BINS

        self._rewrite_lists(index_dir, "postings.bin", 12, edit)
        with pytest.raises(ValueError, match="postings.bin.*bins"):
            load_index(index_dir)


def _postings_parts(raw, at) -> dict[str, tuple[int, int]]:
    """Where each part of the postings that begin at raw[at:] lies: the
    bins, the ids, the term counts and the norms, as (begin, end)."""
    parts = {}
    for part in ("bins", "ids"):
        _, end = _parse_list_set(raw, at)
        parts[part], at = (at, end), end
    tfs, end = _parse_narrow(raw, at)
    parts["tfs"] = (at, end)
    parts["norms"] = (end, len(raw))
    return parts


class TestTermCountsAndNorms:
    """Format 7 stores a term count per posting and a norm per vector with
    postings; open derives the weights from them and refuses bad ones."""

    @pytest.fixture
    def index_dir(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(18), n_docs=5)
        index = build_small_index(corpus, tmp_path / "idx")
        return tmp_path / "idx", index

    @staticmethod
    def _parts(index_dir, index, name) -> tuple[bytes, dict[str, tuple[int, int]]]:
        raw = (index_dir / name).read_bytes()
        if name == "postings.bin":
            return raw, _postings_parts(raw, 12)
        at = TestSparseBinsAtOpen._paragraph_postings_at(index_dir, len(index.para_table))
        return raw, _postings_parts(raw, at)

    @pytest.mark.parametrize("name", ["postings.bin", "sparse_docs.bin"])
    def test_a_term_count_of_0_is_refused(self, index_dir, name):
        index_dir, index = index_dir
        raw, parts = self._parts(index_dir, index, name)
        begin, end = parts["tfs"]
        tfs, _ = _parse_narrow(raw, begin)
        assert len(tfs) > 1 and min(tfs) >= 1
        tfs[len(tfs) // 2] = 0
        _rewrite_section(index_dir, name, raw[:begin] + _narrow(tfs) + raw[end:])
        with pytest.raises(ValueError, match=f"section {name}: .*term counts .*at least 1"):
            load_index(index_dir)

    @pytest.mark.parametrize("name", ["postings.bin", "sparse_docs.bin"])
    @pytest.mark.parametrize("norm", [0.0, -1.0, np.inf, np.nan])
    def test_a_norm_not_finite_and_above_0_is_refused(self, index_dir, name, norm):
        index_dir, index = index_dir
        raw, parts = self._parts(index_dir, index, name)
        begin, end = parts["norms"]
        norms = np.frombuffer(raw[begin:end], "<f8").copy()
        assert norms.size > 1 and (norms > 0).all()
        norms[-1] = norm
        _rewrite_section(index_dir, name, raw[:begin] + norms.tobytes())
        with pytest.raises(ValueError, match=f"section {name}: a vector norm is not finite"):
            load_index(index_dir)

    def test_a_paragraph_bin_rank_past_the_document_bins_is_refused(self, index_dir):
        index_dir, index = index_dir
        n_bins = len(index.postings)
        raw, parts = self._parts(index_dir, index, "sparse_docs.bin")
        begin, end = parts["bins"]
        (ranks,), _ = _parse_list_set(raw, begin)
        assert ranks[-1] < n_bins
        ranks[-1] = n_bins
        _rewrite_section(index_dir, "sparse_docs.bin", raw[:begin] + _list_set([ranks]) + raw[end:])
        with pytest.raises(
            ValueError, match=f"section sparse_docs.bin: paragraph bins, as ranks .*below {n_bins}"
        ):
            load_index(index_dir)

    def test_counts_and_norms_are_those_of_the_vectors(self, index_dir):
        # The stored count of each posting is the n-gram's count in its
        # vector, and the norms are those of the vectors with postings.
        index_dir, index = index_dir
        raw, parts = self._parts(index_dir, index, "postings.bin")
        tfs, _ = _parse_narrow(raw, parts["tfs"][0])
        assert len(tfs) == index.postings.docs.size and max(tfs) > 1
        norms = np.frombuffer(raw[slice(*parts["norms"])], "<f8")
        assert norms.size == np.unique(index.postings.docs).size


@pytest.mark.parametrize("seed, paras", [(31, (1, 1)), (32, (1, 3))])
def test_opened_weights_are_float32_of_the_embedded_weights(tmp_path, seed, paras):
    # Open derives every weight from a term count, an idf and a norm; each
    # must be float32 of the weight TfIdfModel.embed gives the document or
    # the paragraph, bit for bit.
    corpus = make_random_corpus(np.random.default_rng(seed), n_docs=20, paras_per_doc=paras, vocab=30)
    index = build_small_index(corpus, tmp_path / "idx")
    tfidf = fit_tfidf(corpus)
    checked = 0
    for which, p in (("doc", index.postings), ("para", index.para_postings)):
        assert p.weights.dtype == np.float32
        vectors = [tfidf.embed(doc) for doc in corpus] if which == "doc" else [
            SparseVector.empty() if len(doc.paragraphs) == 1 else tfidf.embed(para)
            for doc in corpus for para in doc.paragraphs
        ]
        expected = {
            (int(b), d): np.float32(w)
            for d, vec in enumerate(vectors) for b, w in zip(vec.bins, vec.weights)
        }
        got = {
            (int(b), int(d)): w
            for b, lo, hi in zip(p.bins, p.offsets[:-1], p.offsets[1:])
            for d, w in zip(p.docs[lo:hi], p.weights[lo:hi])
        }
        assert got.keys() == expected.keys()
        assert all(got[key].tobytes() == expected[key].tobytes() for key in got)
        checked += len(got)
    assert checked > 100 and (paras == (1, 1)) == (len(index.para_postings) == 0)


def test_df_table_and_digest_are_those_of_the_fitted_model(tmp_path):
    # The df of a bin whose idf is 0 (df >= N/2) comes from sparse_docs.bin,
    # every other one from the length of its posting list.
    corpus = make_random_corpus(np.random.default_rng(22), n_docs=12, vocab=20)
    index = build_small_index(corpus, tmp_path / "idx")
    want = fit_tfidf(corpus)
    assert any(2 * df >= corpus.n_docs for df in want.doc_freq.values())
    assert index.tfidf.doc_count == want.doc_count
    assert index.tfidf.doc_freq == want.doc_freq
    assert "sparse_model_digest" not in index.manifest


@pytest.mark.parametrize("case", ["above the document count", "with an idf above 0"])
def test_an_idf_zero_df_is_refused_before_its_log_is_taken(tmp_path, case):
    # A df of 108 in 12 documents used to open, and every question with that
    # bin then failed in TfIdfModel.idf with "math domain error".
    corpus = make_random_corpus(np.random.default_rng(22), n_docs=12, vocab=20)
    build_small_index(corpus, tmp_path / "idx")
    raw = (tmp_path / "idx" / "sparse_docs.bin").read_bytes()
    _, at = _parse_list_set(raw, 12)
    dfs, end = _parse_narrow(raw, at)
    assert dfs and max(dfs) <= 12
    dfs[0] = 108 if case == "above the document count" else 1
    _rewrite_section(tmp_path / "idx", "sparse_docs.bin", raw[:at] + _narrow(dfs) + raw[end:])
    with pytest.raises(ValueError, match="section sparse_docs.bin: each idf-0 bin's df must be"):
        load_index(tmp_path / "idx")


def test_derived_para_vectors_are_the_combined_vectors(tmp_path):
    # sparse_docs.bin holds paragraph-only vectors and 1 / ||doc + para||; the
    # combined vector that search derives from them is combine_doc_para's to
    # float32 rounding. A query of one bin reads each paragraph's weight for
    # that bin, so one query per bin reads every combined vector whole.
    corpus = make_random_corpus(np.random.default_rng(23), n_docs=12, paras_per_doc=(1, 3))
    index = build_small_index(corpus, tmp_path / "idx")
    tfidf = fit_tfidf(corpus)
    want = {}  # bin -> its combined weight in each paragraph
    n_paras = []
    for row, (d, p) in enumerate(zip(index.para_table["doc"], index.para_table["para"])):
        doc = corpus.doc_by_ordinal(int(d))
        n_paras.append(len(doc.paragraphs))
        vec = combine_doc_para(tfidf.embed(doc), tfidf.embed(doc.paragraphs[int(p)]))
        for b, w in zip(vec.bins.tolist(), vec.weights.tolist()):
            want.setdefault(b, np.zeros(len(index.para_table)))[row] = w
    assert min(n_paras) == 1 and max(n_paras) > 1
    for b in [*want, max(want) + 1, min(tfidf.doc_freq, key=tfidf.idf)]:
        got = _para_sparse(index, SparseVector(np.array([b]), np.ones(1)))
        expected = want.get(b, np.zeros(len(index.para_table)))
        assert np.array_equal(got != 0, expected != 0), b
        np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(np.float32).eps)


def test_open_refuses_a_version_4_index(tmp_path):
    # And every other version before this one, with the same line.
    build_small_index(make_random_corpus(np.random.default_rng(24), n_docs=4), tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for old in range(4, FORMAT_VERSION):
        manifest["format_version"] = old
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            ValueError,
            match=f"format version {old} .*reads format version {FORMAT_VERSION}, so rebuild",
        ):
            load_index(tmp_path / "idx")


def test_para_row_round_trips_and_rejects_missing_paragraphs(tmp_path):
    corpus = make_random_corpus(np.random.default_rng(17), n_docs=7, paras_per_doc=(1, 3))
    index = build_small_index(corpus, tmp_path / "idx")
    table = index.para_table
    for row in range(len(table)):
        assert index.para_row(int(table[row]["doc"]), int(table[row]["para"])) == row
    for d in range(corpus.n_docs):
        with pytest.raises(KeyError):
            index.para_row(d, len(corpus.doc_by_ordinal(d).paragraphs))
    for missing in [(-1, 0), (corpus.n_docs, 0), (0, -1)]:
        with pytest.raises(KeyError):
            index.para_row(*missing)


class TestCrashSafeBuild:
    @pytest.fixture
    def spill_files(self, monkeypatch):
        """Every file the build opens with tempfile.TemporaryFile: its row spills."""
        opened = []
        make = tempfile.TemporaryFile

        def recording(*args, **kwargs):
            opened.append(make(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", recording)
        return opened

    def test_failed_build_leaves_nothing_behind(self, tmp_path, monkeypatch, spill_files):
        from phraseindex import search

        rng = np.random.default_rng(13)
        corpus = make_random_corpus(rng, n_docs=4)
        enc = ToyEncoder(SMALL_CONFIG, seed=0)

        def fail(*args, **kwargs):
            raise RuntimeError("k-means failed")

        monkeypatch.setattr(search, "kmeans_train", fail)
        with pytest.raises(RuntimeError, match="k-means failed"):
            build_index(corpus, enc, None, tmp_path / "idx", BuildConfig(max_span=3))
        assert list(tmp_path.iterdir()) == []
        assert spill_files and all(f.closed for f in spill_files)

        monkeypatch.undo()
        build_index(corpus, enc, None, tmp_path / "idx", BuildConfig(max_span=3))
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        assert load_index(tmp_path / "idx").counts["docs"] == 4
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE((tmp_path / "idx").stat().st_mode) == 0o777 & ~umask

    def test_spills_of_a_successful_build_are_closed_and_unnamed(self, tmp_path, spill_files):
        corpus = make_random_corpus(np.random.default_rng(17), n_docs=4)
        build_index(corpus, ToyEncoder(SMALL_CONFIG), None, tmp_path / "idx")
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        assert len(spill_files) == 4 and all(f.closed for f in spill_files)
        index = load_index(tmp_path / "idx")
        assert sorted(index.manifest["sections"]) == sorted(
            p.name for p in (tmp_path / "idx").iterdir() if p.name != "manifest.json"
        )

    @pytest.mark.parametrize("case", ["no tokens", "filter discarded"])
    def test_spills_of_an_empty_build_are_closed(self, tmp_path, spill_files, case):
        if case == "no tokens":
            corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text(" ")])])
            filter_model = None
        else:
            corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text("a b c")])])
            filter_model = FilterModel(
                np.zeros(SMALL_CONFIG.boundary_dim), -50.0,
                np.zeros(SMALL_CONFIG.boundary_dim), -50.0, threshold=0.5,
            )
        with pytest.raises(ValueError, match=case):
            build_index(corpus, ToyEncoder(SMALL_CONFIG), filter_model, tmp_path / "idx")
        assert list(tmp_path.iterdir()) == []
        assert spill_files and all(f.closed for f in spill_files)


_STALLED_BUILD = """
import sys, time
from pathlib import Path

import numpy as np

from conftest import SMALL_CONFIG, make_random_corpus
from phraseindex import search
from phraseindex.dense import ToyEncoder
from phraseindex.index import BuildConfig, build_index


def stall(*args, **kwargs):
    print("sections written", flush=True)
    time.sleep(120)


search.kmeans_train = stall
corpus = make_random_corpus(np.random.default_rng(13), n_docs=4)
build_index(corpus, ToyEncoder(SMALL_CONFIG), None, Path(sys.argv[1]))
"""

_HOLD_LOCK = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_RDONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
time.sleep(120)
"""


class TestDeadBuildReclaim:
    """A build removes the temp directories of dead builds to its name, and
    nothing else: a live build holds an flock on its own."""

    @staticmethod
    def _child(script, *args):
        import subprocess
        import sys

        import phraseindex

        paths = [
            str(Path(phraseindex.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent),
            os.environ.get("PYTHONPATH"),
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)],
            env=env, stdout=subprocess.PIPE, text=True,
        )

    @staticmethod
    def _build(out):
        corpus = make_random_corpus(np.random.default_rng(21), n_docs=3)
        build_index(corpus, ToyEncoder(SMALL_CONFIG), None, out,
                    BuildConfig(max_span=3, ivf_clusters=4))

    def test_a_killed_build_is_reclaimed_by_the_next(self, tmp_path):
        import signal

        with self._child(_STALLED_BUILD, tmp_path / "idx") as proc:
            try:
                assert proc.stdout.readline() == "sections written\n"
                (left,) = tmp_path.glob("idx.*.tmp")
                assert (left / "starts.bin").exists() and (left / "postings.bin").exists()
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
        assert left.exists()  # a killed build cannot clean up
        self._build(tmp_path / "idx")
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        assert load_index(tmp_path / "idx").counts["docs"] == 3

    def test_a_directory_locked_by_a_live_process_survives(self, tmp_path):
        live = tmp_path / "idx.live.tmp"
        live.mkdir()
        (live / "starts.bin").write_bytes(b"partial")
        with self._child(_HOLD_LOCK, live) as proc:
            try:
                assert proc.stdout.readline() == "locked\n"
                self._build(tmp_path / "idx")
                assert (live / "starts.bin").read_bytes() == b"partial"
            finally:
                proc.kill()
                proc.wait()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx", "idx.live.tmp"]

    def test_only_temp_directories_of_the_name_are_removed(self, tmp_path):
        # None of these is locked; only idx.dead.tmp is a temp directory of idx.
        kept = ["idx.tmp", "idx2.x.tmp", "xidx.y.tmp", "idx.z.tmpx", "other.a.tmp", "target"]
        for name in [*kept, "idx.dead.tmp"]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "f").write_bytes(b"x")
        (tmp_path / "idx.file.tmp").write_bytes(b"a file, not a directory")
        (tmp_path / "idx.link.tmp").symlink_to(tmp_path / "target")
        self._build(tmp_path / "idx")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*kept, "idx", "idx.file.tmp", "idx.link.tmp"]
        )
        assert all((tmp_path / name / "f").read_bytes() == b"x" for name in kept)


def _reference_quantized_sections(corpus, encoder, config: BuildConfig) -> dict[str, bytes]:
    """quant.bin, starts.bin, ends.bin and ivf.bin of a keep-all build, from
    params fitted on every row held as float64, and each cell's rows taken
    one cell at a time from the assignment of every start row."""
    rows = ([], [])
    for _, doc, pidx, para in corpus.iter_paragraphs():
        H = encoder.encode_document(para.tokens, key=f"{doc.id}/{pidx}")
        rows[0].append(H.start_cols)
        rows[1].append(H.end_cols)
    rows = [np.concatenate(r) for r in rows]
    quants = [fit_quantization(r) for r in rows]
    codes = [quantize(r, q) for r, q in zip(rows, quants)]
    starts = dequantize(codes[0], quants[0])
    ivf = kmeans_train(starts, config.ivf_clusters, seed=config.seed)
    assign = _assign(starts, ivf.centroids)
    cells = [np.flatnonzero(assign == c) for c in range(config.ivf_clusters)]

    def section(tag, *parts):
        return b"PIDX" + tag + struct.pack("<I", FORMAT_VERSION) + b"".join(parts)

    # Each section's shape is given by encoder.bin and the masks, so the code
    # and quantization sections store no width or row count.
    return {
        "quant.bin": section(
            b"QNTZ", *(a.astype("<f8").tobytes() for q in quants for a in (q.minimums, q.scales)),
        ),
        "starts.bin": section(b"STRT", codes[0].tobytes()),
        "ends.bin": section(b"ENDS", codes[1].tobytes()),
        "ivf.bin": section(
            b"IVFC", struct.pack("<I", config.ivf_clusters),
            ivf.centroids.astype("<f4").tobytes(),
            _list_set([c.tolist() for c in cells]),
        ),
    }


@pytest.mark.parametrize("chunk", [1, 99, -1, 0], ids=["1", "99", "rows_less_1", "rows"])
def test_quantized_sections_are_the_bytes_of_a_fit_on_every_row(tmp_path, monkeypatch, chunk):
    # The build fits each side from the per-dimension least and greatest
    # values it keeps as it spills the rows, quantizes the spill read back a
    # chunk of rows at a time, and writes the IVF's cells as kmeans_train
    # returns them; whatever the chunk, its sections must equal those of a
    # fit on every row and of cells gathered one at a time.
    corpus = make_random_corpus(np.random.default_rng(18), n_docs=24)
    rows = corpus.total_tokens()
    assert rows > _TRAIN_PER_CELL * 4  # the Lloyd sample is drawn, too
    monkeypatch.setattr("phraseindex.index._SPILL_CHUNK", chunk % rows or rows)
    config = BuildConfig(max_span=3, seed=5, ivf_clusters=4)
    encoder = ToyEncoder(SMALL_CONFIG, seed=2)
    build_index(corpus, encoder, None, tmp_path / "idx", config)
    for name, want in _reference_quantized_sections(corpus, encoder, config).items():
        assert (tmp_path / "idx" / name).read_bytes() == want, name


def _reference_sparse_sections(corpus, tfidf) -> dict[str, bytes]:
    """postings.bin and sparse_docs.bin from a SparseVector, its bin counts and
    its norm per document and per paragraph, every posting gathered one entry
    at a time."""

    def terms(counts):
        """The vector of counts, the count of each of its bins, and the norm
        of its tf * idf."""
        vec = tfidf.embed(counts)
        tfs = [counts[b] for b in vec.bins.tolist()]
        norm = np.linalg.norm([tf * tfidf.idf(b) for b, tf in zip(vec.bins.tolist(), tfs)])
        return vec, tfs, float(norm)

    docs, own, inv_norms = [], [], []
    for doc in corpus:
        counts = [token_counts(para.surfaces()) for para in doc.paragraphs]
        doc_terms = terms(sum(counts, Counter()))
        docs.append(doc_terms)
        for para_counts in counts:
            sole = len(doc.paragraphs) == 1
            para_terms = doc_terms if sole else terms(para_counts)
            own.append((SparseVector.empty(), [], 0.0) if sole else para_terms)
            norm = add_vectors(doc_terms[0], para_terms[0]).norm()
            inv_norms.append(1.0 / norm if norm else 0.0)

    posted = sorted({b for vec, _, _ in docs for b in vec.bins.tolist()})
    rank = {b: k for k, b in enumerate(posted)}

    def postings_of(vectors, name) -> bytes:
        """The bins, named by name(bin), as one list, each bin's vector
        ordinals, their term counts, then the norm of each vector with
        postings."""
        postings: dict[int, list[tuple[int, int]]] = {}
        for d, (vec, tfs, _) in enumerate(vectors):
            for b, tf in zip(vec.bins.tolist(), tfs):
                postings.setdefault(b, []).append((d, tf))
        bins = sorted(postings)
        return (
            _list_set([[name(b) for b in bins]])
            + _list_set([[d for d, _ in postings[b]] for b in bins])
            + _narrow([tf for b in bins for _, tf in postings[b]])
            + np.array([norm for vec, _, norm in vectors if vec.bins.size], dtype="<f8").tobytes()
        )

    zero = sorted(set(tfidf.doc_freq) - set(posted))
    assert zero and len(own) > len(docs)  # idf-0 bins and multi-paragraph docs occur

    def section(tag, *parts):
        return b"PIDX" + tag + struct.pack("<I", FORMAT_VERSION) + b"".join(parts)

    return {
        "postings.bin": section(b"PSTG", postings_of(docs, lambda b: b)),
        "sparse_docs.bin": section(
            b"SPRS", _list_set([zero]), _narrow([tfidf.doc_freq[b] for b in zero]),
            np.array(inv_norms, dtype="<f4").tobytes(), postings_of(own, rank.__getitem__),
        ),
    }


def test_sparse_sections_are_the_bytes_of_a_vector_per_document_and_paragraph(tmp_path):
    # The build appends its tf-idf vectors to flat buffers and keeps no
    # SparseVector; its sections must equal those written from the vectors.
    corpus = make_random_corpus(np.random.default_rng(19), n_docs=30, paras_per_doc=(1, 3), vocab=40)
    tfidf = fit_tfidf(corpus)
    build_index(corpus, ToyEncoder(SMALL_CONFIG, seed=2), None, tmp_path / "idx",
                BuildConfig(max_span=3, ivf_clusters=4))
    for name, want in _reference_sparse_sections(corpus, tfidf).items():
        assert (tmp_path / "idx" / name).read_bytes() == want, name


@pytest.mark.parametrize("field, value", [
    ("max_span", 0), ("max_span", True), ("ivf_clusters", 0), ("ivf_clusters", False), ("seed", -1), ("seed", True),
])
def test_build_config_refuses_bad_counts(field, value):
    with pytest.raises(ValueError, match=field):
        BuildConfig(**{field: value})


class TestDefaultCellCount:
    @pytest.mark.parametrize("n_tokens, cells", [(10, 10), (40, 26), (100, 40)])
    def test_four_root_n_capped_at_the_rows(self, tmp_path, n_tokens, cells):
        # ceil(4 * sqrt(10)) = 13 is capped at 10 rows; ceil(4 * sqrt(40)) = 26.
        text = " ".join(f"w{k}" for k in range(n_tokens))
        corpus = CorpusStore([Document("d1", "T", [Paragraph.from_text(text)])])
        enc = ToyEncoder(SMALL_CONFIG, seed=0)
        build_index(corpus, enc, None, tmp_path / "idx", BuildConfig(max_span=2))
        assert load_index(tmp_path / "idx").ivf.centroids.shape[0] == cells


def _doc_vectors(corpus):
    """The corpus's tf-idf document vectors."""
    tfidf = fit_tfidf(corpus)
    return [tfidf.embed(doc) for doc in corpus]


def test_postings_decode_to_the_inverted_index_of_the_doc_vectors(tmp_path):
    rng = np.random.default_rng(14)
    corpus = make_random_corpus(rng, n_docs=30, vocab=40)
    index = build_small_index(corpus, tmp_path / "idx")
    want = build_inverted_index(SparseRows(_doc_vectors(corpus)))
    got = index.postings
    assert sorted(got) == sorted(want) and len(got) > 50
    for b, (docs, weights) in want.items():
        assert got[b][0].dtype == np.int64 and got[b][1].dtype == np.float32
        assert np.array_equal(got[b][0], docs)
        assert np.array_equal(got[b][1], weights)


def test_open_postings_answer_like_the_built_inverted_index(tmp_path):
    # Postings are read as CSR arrays with no object per bin; lookups, misses
    # and retrieval must behave as with the build's dict of posting lists.
    from phraseindex.search import embed_question
    from phraseindex.sparse import InvertedIndex, retrieve_top_docs

    rng = np.random.default_rng(15)
    corpus = make_random_corpus(rng, n_docs=30, vocab=40)
    index = build_small_index(corpus, tmp_path / "idx")
    postings = index.postings
    assert isinstance(postings, InvertedIndex)
    missing = max(postings) + 1
    assert postings.get(missing) is None and missing not in postings
    with pytest.raises(KeyError):
        postings[missing]
    built = build_inverted_index(SparseRows(_doc_vectors(corpus)))
    for text in ["w001 w002", "w010 w011 w012", "w030", "w039 w000 w017"]:
        q = embed_question(index, text).sparse
        assert retrieve_top_docs(q, index.postings, 7) == retrieve_top_docs(q, built, 7)


def test_open_tokenizes_no_paragraph(tmp_path, monkeypatch):
    # Open keeps paragraph text raw; a result's text reads the token bounds
    # of its own paragraph from the token regex's matches, keeps them, and
    # builds no Token.
    import phraseindex.corpus as corpus_module
    from phraseindex.search import SearchConfig, embed_question, run_search

    rng = np.random.default_rng(16)
    build_small_index(make_random_corpus(rng, n_docs=20), tmp_path / "idx")
    built = []
    token_orig = corpus_module.Token

    def counting_token(*args):
        built.append(args)
        return token_orig(*args)

    monkeypatch.setattr(corpus_module, "Token", counting_token)
    index = load_index(tmp_path / "idx")
    assert built == []
    paragraphs = [p for doc in index.corpus for p in doc.paragraphs]
    assert not any("tokens" in vars(p) or "char_bounds" in vars(p) for p in paragraphs)

    query = embed_question(index, "w001 w002")
    built.clear()  # the question's own Tokens
    results = run_search(index, query, SearchConfig(strategy="exact", top_k=3)).results
    assert results and built == []
    result_paras = {(r.span.doc_id, r.span.para_idx) for r in results}
    assert sorted(id(p) for p in paragraphs if "char_bounds" in vars(p)) == sorted(
        id(index.corpus.doc(d).paragraphs[p]) for d, p in result_paras
    )
    assert not any("tokens" in vars(p) for p in paragraphs)
    for r in results:
        para = index.corpus.doc(r.span.doc_id).paragraphs[r.span.para_idx]
        tokens = corpus_module.tokenize(para.raw_text)
        assert r.text == para.raw_text[tokens[r.span.i].char_start : tokens[r.span.j].char_end]
