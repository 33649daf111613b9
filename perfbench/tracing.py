"""Spans around calls into phraseindex's public functions, from outside it.

The tracer replaces module and class attributes with timing wrappers.
Functions are replaced under every name any ``phraseindex`` module binds them
to, and package code looks its globals up at call time, so nested calls
produce nested spans without any edit to the program.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: str
    count: int  # work done, for spans that count something (rows); else 0


def _rows(args, kwargs) -> int:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    if isinstance(rows, slice):
        return rows.stop - (rows.start or 0)
    return len(rows)


def phraseindex_targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, counter) for every traced layer boundary."""
    import phraseindex.cli  # noqa: F401  (binds the names the CLI imports)
    import phraseindex.service  # noqa: F401
    from phraseindex import corpus, dense, index, search, service, sparse

    return [
        (corpus, "load_corpus", "corpus.load_corpus", None),
        (dense.ToyEncoder, "encode_document", "dense.encode_document", None),
        (dense.ToyEncoder, "encode_question", "dense.encode_question", None),
        (sparse, "fit_tfidf", "sparse.fit_tfidf", None),
        (sparse.TfIdfModel, "embed", "sparse.embed", None),
        (sparse, "combine_doc_para", "sparse.combine_doc_para", None),
        (sparse, "build_inverted_index", "sparse.build_inverted_index", None),
        (sparse, "retrieve_top_docs", "sparse.retrieve_top_docs", None),
        (index, "build_index", "index.build_index", None),
        (index, "apply_filter", "index.apply_filter", None),
        (index, "fit_quantization", "index.fit_quantization", None),
        (index, "quantize", "index.quantize", None),
        (index.PhraseIndex, "__init__", "index.open", None),
        (index.PhraseIndex, "dequant_start_rows", "index.dequant_start_rows", _rows),
        (index.PhraseIndex, "dequant_end_rows", "index.dequant_end_rows", _rows),
        (search, "kmeans_train", "search.kmeans_train", None),
        (search, "embed_question", "search.embed_question", None),
        (search, "run_search", "search.run_search", None),
        (search, "exact_search", "search.exact_search", None),
        (search, "sfs_search", "search.sfs_search", None),
        (search, "dfs_search", "search.dfs_search", None),
        (search, "hybrid_search", "search.hybrid_search", None),
        (service, "handle_query", "service.handle_query", None),
    ]


class Tracer:
    """Collects spans in memory while installed; `write` saves them as JSON lines."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            k = len(spans)
            count = counter(args, kwargs) if counter else 0
            spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request, count))
            stack.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[k].end = time.perf_counter()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "phraseindex" or n.startswith("phraseindex.")]
        for owner, attr, name, counter in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    @contextmanager
    def tag(self, request: str):
        self.request = request
        try:
            yield
        finally:
            self.request = ""

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summary(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    own = self_times(spans)
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, t in zip(spans, own):
        row = table[s.name]
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += t
    return {k: tuple(v) for k, v in sorted(table.items())}
