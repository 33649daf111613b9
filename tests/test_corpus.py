"""Corpus loading, tokenization, and span enumeration."""

import json
import re
import string

import numpy as np
import pytest

from phraseindex.corpus import (
    CorpusStore,
    Paragraph,
    Token,
    enumerate_spans,
    load_corpus,
    load_qa,
    tokenize,
)


class TestTokenize:
    def test_detaches_trailing_punctuation(self):
        tokens = tokenize("Barack Obama.")
        assert [t.surface for t in tokens] == ["Barack", "Obama", "."]
        assert [(t.char_start, t.char_end) for t in tokens] == [(0, 6), (7, 12), (12, 13)]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_double_space_offsets(self):
        tokens = tokenize("a  b")
        assert [(t.surface, t.char_start, t.char_end) for t in tokens] == [
            ("a", 0, 1),
            ("b", 3, 4),
        ]

    def test_leading_and_interior_punctuation(self):
        tokens = tokenize('("don\'t")')
        assert [t.surface for t in tokens] == ['(', '"', "don't", '"', ')']

    def test_surfaces_match_raw_slices(self):
        text = "The U.S. economy grew 3.2% (roughly)."
        for tok in tokenize(text):
            assert text[tok.char_start : tok.char_end] == tok.surface

    def test_limit_keeps_the_first_tokens(self):
        text = "The U.S. economy grew 3.2% (roughly)."
        whole = tokenize(text)
        for limit in range(len(whole) + 2):
            assert tokenize(text, limit) == whole[:limit]

    def test_idempotent_on_single_space_joins(self):
        rng = np.random.default_rng(0)
        pieces = ["alpha", "beta!", "¿que?", "x", "--", "t.v."]
        for _ in range(50):
            text = " ".join(rng.choice(pieces, size=int(rng.integers(1, 8))))
            once = [t.surface for t in tokenize(text)]
            twice = [t.surface for t in tokenize(" ".join(once))]
            assert once == twice


class TestEnumerateSpans:
    def test_count_t5_j3(self):
        para = Paragraph.from_text("a b c d e")
        assert len(enumerate_spans(para, 3)) == 12

    def test_count_when_max_span_exceeds_length(self):
        para = Paragraph.from_text("a b c")
        spans = enumerate_spans(para, 20)
        assert len(spans) == 6

    def test_single_token(self):
        spans = enumerate_spans(Paragraph.from_text("a"), 5)
        assert [(s.i, s.j) for s in spans] == [(0, 0)]

    def test_lexicographic_order_and_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            max_span = int(rng.integers(1, 12))
            para = Paragraph.from_text(" ".join(["tok"] * n))
            spans = enumerate_spans(para, max_span)
            pairs = [(s.i, s.j) for s in spans]
            assert pairs == sorted(pairs)
            assert all(s.j - s.i < max_span for s in spans)
            if n >= max_span:
                expected = n * max_span - max_span * (max_span - 1) // 2
            else:
                expected = n * (n + 1) // 2
            assert len(spans) == expected

    def test_rejects_nonpositive_max_span(self):
        with pytest.raises(ValueError):
            enumerate_spans(Paragraph.from_text("a"), 0)

    def test_spans_map_to_contiguous_char_ranges(self):
        para = Paragraph.from_text("one two three four")
        store = CorpusStore.__new__(CorpusStore)  # only span_text logic is exercised below
        for span in enumerate_spans(para, 3):
            lo = para.tokens[span.i].char_start
            hi = para.tokens[span.j].char_end
            assert 0 <= lo < hi <= len(para.raw_text)


class TestLoadCorpus:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "d1", "title": "T", "paragraphs": ["a b"]}) + "\n")
        store = load_corpus(path)
        assert len(store) == 1
        doc = store.doc("d1")
        assert len(doc.paragraphs) == 1
        assert doc.paragraphs[0].n_tokens == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty corpus"):
            load_corpus(path)

    def test_duplicate_ids_name_the_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = json.dumps({"id": "d1", "title": "T", "paragraphs": ["a"]})
        path.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(ValueError, match="d1"):
            load_corpus(path)

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"id": "d1", "title": "T", "paragraphs": ["a"]})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path)

    def test_deeply_nested_line_reports_its_line(self, tmp_path):
        # Past its depth limit json.loads raises RecursionError, not ValueError.
        path = tmp_path / "c.jsonl"
        good = json.dumps({"id": "d1", "title": "T", "paragraphs": ["a"]})
        path.write_text(good + "\n" + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
            load_corpus(path)

    def test_span_text_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"id": "d1", "title": "T", "paragraphs": ["alpha beta gamma"]}) + "\n"
        )
        store = load_corpus(path)
        span = enumerate_spans(store.doc("d1").paragraphs[0], 2, "d1", 0)[1]
        assert store.span_text(span) == "alpha beta"


def test_load_qa(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text(
        json.dumps(
            {
                "question": "who?",
                "answers": ["x"],
                "doc_id": "d1",
                "answer_span": [0, 3, 8],
            }
        )
        + "\n"
        + json.dumps({"question": "what?", "answers": ["y", "z"]})
        + "\n"
    )
    records = load_qa(path)
    assert records[0].answer_span == (0, 3, 8)
    assert records[1].doc_id is None
    assert records[1].answers == ["y", "z"]


def test_paragraph_tokens_are_taken_on_first_use(tmp_path):
    # Loading keeps the raw text only. span_text reads compact char bounds,
    # and build and training still get the same tokens as tokenize().
    text = 'He said: "the U.S. grew 3.2%" (roughly).'
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "d1", "title": "T", "paragraphs": [text]}) + "\n")
    store = load_corpus(path)
    para = store.doc("d1").paragraphs[0]
    assert "tokens" not in vars(para)
    for span in enumerate_spans(Paragraph.from_text(text), 30, "d1", 0):
        want = tokenize(text)
        assert store.span_text(span) == text[want[span.i].char_start : want[span.j].char_end]
    assert "tokens" not in vars(para)
    assert para.tokens == tokenize(text) and para.n_tokens == len(tokenize(text))


def test_load_qa_refuses_an_empty_answer_list(tmp_path):
    # bench would otherwise end in a traceback from em_f1.
    path = tmp_path / "qa.jsonl"
    lines = [{"question": "q1", "answers": ["a"]}, {"question": "q2", "answers": []}]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(ValueError, match="qa.jsonl: line 2: answers must be a non-empty list"):
        load_qa(path)


def _chunk_and_strip_tokenize(text: str) -> list[Token]:
    """The tokenizer as it was before the single regex: split on whitespace,
    then detach leading and trailing punctuation characters one at a time."""
    out: list[Token] = []
    for m in re.finditer(r"\S+", text):
        chunk, base = m.group(), m.start()
        lo, hi = 0, len(chunk)
        while lo < hi and chunk[lo] in string.punctuation:
            out.append(Token(chunk[lo], base + lo, base + lo + 1))
            lo += 1
        trailing: list[Token] = []
        while hi > lo and chunk[hi - 1] in string.punctuation:
            trailing.append(Token(chunk[hi - 1], base + hi - 1, base + hi))
            hi -= 1
        if lo < hi:
            out.append(Token(chunk[lo:hi], base + lo, base + hi))
        out.extend(reversed(trailing))
    return out


# Every text the tests above tokenize, directly or through a paragraph.
_TEST_INPUTS = [
    "Barack Obama.", "", "a  b", '("don\'t")', "The U.S. economy grew 3.2% (roughly).",
    "alpha beta! ¿que? x -- t.v.", "a b c d e", "a b c", "a", "one two three four",
    "alpha beta gamma", 'He said: "the U.S. grew 3.2%" (roughly).',
]


def test_regex_tokenize_equals_the_chunk_and_strip_loop():
    rng = np.random.default_rng(12)
    alphabet = list(string.ascii_letters + string.punctuation + "\t\n é\u00a0\u3000“”‘’«»")
    texts = _TEST_INPUTS + [
        "".join(rng.choice(alphabet, size=int(rng.integers(0, 40)))) for _ in range(20_000)
    ]
    for text in texts:
        tokens = tokenize(text)
        assert tokens == _chunk_and_strip_tokenize(text), text
        para = Paragraph.from_text(text)
        assert para.surfaces() == [t.surface for t in tokens], text
        assert list(para.char_bounds) == [c for t in tokens for c in (t.char_start, t.char_end)], text
