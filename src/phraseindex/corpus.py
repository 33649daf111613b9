"""Corpus ingestion, deterministic tokenization, and candidate span enumeration."""

from __future__ import annotations

import json
import re
import string
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

_P = re.escape(string.punctuation)
# A token is one punctuation character, or a run of non-whitespace that begins
# and ends with a character that is neither whitespace nor punctuation.
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")
_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class Token:
    """A surface form with its character range in the paragraph text."""

    surface: str
    char_start: int
    char_end: int


@dataclass
class Paragraph:
    """A paragraph's raw text. Loading a corpus tokenizes nothing, and the
    tokens are taken afresh on every use and never kept, so a build holds the
    tokens of one document at a time. Only char_bounds, which span_text reads,
    is kept once taken."""

    raw_text: str

    @classmethod
    def from_text(cls, text: str) -> "Paragraph":
        return cls(raw_text=text)

    @property
    def tokens(self) -> list[Token]:
        return tokenize(self.raw_text)

    @cached_property
    def char_bounds(self) -> array:
        """char_start, char_end of each token in turn, as compact integers
        read from the matches of _TOKEN_RE: what span_text reads, with no
        Token built."""
        return array("q", [c for m in _TOKEN_RE.finditer(self.raw_text) for c in m.span()])

    @property
    def n_tokens(self) -> int:
        return len(self.surfaces())

    def surfaces(self) -> list[str]:
        """The tokens' surfaces, without building a Token each."""
        return _TOKEN_RE.findall(self.raw_text)


@dataclass
class Document:
    id: str
    title: str
    paragraphs: list[Paragraph]


@dataclass(frozen=True)
class SpanRef:
    """A token span [i, j] (inclusive) inside one paragraph of one document."""

    doc_id: str
    para_idx: int
    i: int
    j: int


def tokenize(text: str, limit: int | None = None) -> list[Token]:
    """Split on whitespace and detach leading/trailing punctuation characters,
    one token each: the matches of _TOKEN_RE. With a limit, only the first
    `limit` tokens are made, and the rest of the text is not scanned.

    Deterministic, and every token's surface equals the raw-text slice
    [char_start, char_end). Lowercasing happens downstream, for sparse
    features only.
    """
    matches = islice(_TOKEN_RE.finditer(text), limit)
    return [Token(m.group(), m.start(), m.end()) for m in matches]


def enumerate_spans(
    para: Paragraph, max_span: int, doc_id: str = "", para_idx: int = 0
) -> list[SpanRef]:
    """All spans (i, j) with j - i < max_span, in (i, j) lexicographic order."""
    if max_span < 1:
        raise ValueError(f"max_span must be >= 1, got {max_span}")
    n = para.n_tokens
    return [
        SpanRef(doc_id, para_idx, i, j)
        for i in range(n)
        for j in range(i, min(i + max_span, n))
    ]


class CorpusStore:
    """Immutable-after-load collection of documents; safe for concurrent readers."""

    def __init__(self, documents: list[Document]):
        if not documents:
            raise ValueError("empty corpus")
        self.documents = documents
        self._by_id: dict[str, Document] = {}
        self._ordinal: dict[str, int] = {}
        for ord_, doc in enumerate(documents):
            if doc.id in self._by_id:
                raise ValueError(f"duplicate document id {doc.id!r}")
            if not doc.paragraphs:
                raise ValueError(f"document {doc.id!r} has no paragraphs")
            self._by_id[doc.id] = doc
            self._ordinal[doc.id] = ord_

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    def doc(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def doc_by_ordinal(self, ordinal: int) -> Document:
        return self.documents[ordinal]

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal[doc_id]

    def total_tokens(self) -> int:
        return sum(p.n_tokens for d in self.documents for p in d.paragraphs)

    def iter_paragraphs(self) -> Iterator[tuple[int, Document, int, Paragraph]]:
        """Yield (doc ordinal, document, paragraph index, paragraph) in corpus order."""
        for ord_, doc in enumerate(self.documents):
            for pidx, para in enumerate(doc.paragraphs):
                yield ord_, doc, pidx, para

    def span_text(self, ref: SpanRef) -> str:
        para = self._by_id[ref.doc_id].paragraphs[ref.para_idx]
        bounds = para.char_bounds
        return para.raw_text[bounds[2 * ref.i] : bounds[2 * ref.j + 1]]

    def write_jsonl(self, fh: TextIO) -> None:
        """Canonical one-document-per-line serialization (deterministic bytes),
        written a line at a time."""
        for doc in self.documents:
            rec = {
                "id": doc.id,
                "title": doc.title,
                "paragraphs": [p.raw_text for p in doc.paragraphs],
            }
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def _read_jsonl(path: str | Path, parse: Callable[[dict, int], _T]) -> list[_T]:
    """parse(record, line number) for the JSON object on each non-blank line
    of a JSON-lines file. Any fault of a line (not UTF-8, not JSON, not an object,
    or refused by parse with a ValueError) raises a ValueError that names the
    file and the line."""
    out: list[_T] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
                out.append(parse(rec, line_no))
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: not UTF-8 ({exc.reason})") from exc
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                why = "invalid JSON (nested too deeply)"
                raise ValueError(f"{path}: line {line_no}: {why}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return out


def _parse_doc_record(rec: dict) -> Document:
    try:
        doc_id = rec["id"]
        title = rec["title"]
        paragraphs = rec["paragraphs"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    if not isinstance(doc_id, str) or not isinstance(title, str):
        raise ValueError("id and title must be strings")
    if not isinstance(paragraphs, list) or not paragraphs:
        raise ValueError("paragraphs must be a non-empty list")
    if not all(isinstance(p, str) for p in paragraphs):
        raise ValueError("paragraphs must be strings")
    return Document(
        id=doc_id, title=title, paragraphs=[Paragraph.from_text(p) for p in paragraphs]
    )


def load_corpus(path: str | Path) -> CorpusStore:
    """Load a JSON-lines corpus: one {"id", "title", "paragraphs"} object per line."""
    seen: dict[str, int] = {}  # document id -> the line it is first on

    def parse(rec: dict, line_no: int) -> Document:
        doc = _parse_doc_record(rec)
        if seen.setdefault(doc.id, line_no) != line_no:
            raise ValueError(f"duplicate document id {doc.id!r} (first on line {seen[doc.id]})")
        return doc

    docs = _read_jsonl(path, parse)
    if not docs:
        raise ValueError("empty corpus")
    return CorpusStore(docs)


@dataclass
class QaRecord:
    """One question with its gold answers and optional provenance."""

    question: str
    answers: list[str]
    doc_id: str | None = None
    answer_span: tuple[int, int, int] | None = None  # (para_idx, char_start, char_end)


def _parse_qa_record(rec: dict) -> QaRecord:
    try:
        question = rec["question"]
        answers = rec["answers"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    if not isinstance(question, str):
        raise ValueError("question must be a string")
    if not isinstance(answers, list) or not answers or not all(isinstance(a, str) for a in answers):
        raise ValueError("answers must be a non-empty list of strings")
    doc_id, span = rec.get("doc_id"), rec.get("answer_span")
    if doc_id is not None and not isinstance(doc_id, str):
        raise ValueError("doc_id must be a string")
    if span is not None and not (
        isinstance(span, list)
        and len(span) == 3
        and all(isinstance(v, int) and not isinstance(v, bool) for v in span)
        and span[0] >= 0
        and 0 <= span[1] < span[2]
    ):
        raise ValueError(
            "answer_span must be [para_idx, char_start, char_end]: "
            "integers with para_idx >= 0 and 0 <= char_start < char_end"
        )
    return QaRecord(
        question=question,
        answers=answers,
        doc_id=doc_id,
        answer_span=tuple(span) if span is not None else None,
    )


def load_qa(path: str | Path) -> list[QaRecord]:
    """Load a JSON-lines QA set: {"question", "answers", "doc_id"?, "answer_span"?}."""
    return _read_jsonl(path, lambda rec, _line_no: _parse_qa_record(rec))
