"""Correctness checks on query responses, against the generated corpus itself."""

from __future__ import annotations

from phraseindex.corpus import tokenize

SCORE_TOLERANCE = 1e-9


def result_dicts(out) -> list[dict]:
    """A SearchOutput's results in the HTTP response's field layout."""
    return [
        {
            "text": r.text,
            "doc_id": r.span.doc_id,
            "doc_title": r.doc_title,
            "para_idx": r.span.para_idx,
            "start_token": r.span.i,
            "end_token": r.span.j,
            "score": r.score,
            "dense_score": r.dense_score,
            "sparse_score": r.sparse_score,
            "strategy": r.strategy,
        }
        for r in out.results
    ]


def spans(results: list[dict]) -> list[tuple]:
    return [(r["doc_id"], r["para_idx"], r["start_token"], r["end_token"]) for r in results]


def recall(got: list[dict], exact: list[dict]) -> float:
    """Share of the exact top spans that also appear in `got`."""
    truth = set(spans(exact))
    return len(truth & set(spans(got))) / len(truth)


class Corpus:
    """The benchmark's own view of the generated documents."""

    def __init__(self, docs: list[dict], max_span: int, sparse_scale: float):
        self.docs = {d["id"]: d for d in docs}
        self.ordinal = {d["id"]: k for k, d in enumerate(docs)}
        self.max_span = max_span
        self.sparse_scale = sparse_scale
        self._tokens: dict[tuple[str, int], list] = {}

    def tokens(self, doc_id: str, para: int) -> list:
        key = (doc_id, para)
        if key not in self._tokens:
            self._tokens[key] = tokenize(self.docs[doc_id]["paragraphs"][para])
        return self._tokens[key]

    def result_problem(self, r: dict) -> str:
        doc = self.docs.get(r.get("doc_id"))
        if doc is None:
            return f"unknown doc_id {r.get('doc_id')!r}"
        if r["doc_title"] != doc["title"]:
            return f"{doc['id']}: title {r['doc_title']!r}"
        para, i, j = r["para_idx"], r["start_token"], r["end_token"]
        if not 0 <= para < len(doc["paragraphs"]):
            return f"{doc['id']}: no paragraph {para}"
        toks = self.tokens(doc["id"], para)
        if not (0 <= i <= j < len(toks) and j - i < self.max_span):
            return f"{doc['id']}/{para}: bad span ({i}, {j})"
        text = doc["paragraphs"][para][toks[i].char_start : toks[j].char_end]
        if r["text"] != text:
            return f"{doc['id']}/{para} ({i}, {j}): text {r['text']!r} != {text!r}"
        expected = r["dense_score"] + self.sparse_scale * r["sparse_score"]
        if abs(r["score"] - expected) > SCORE_TOLERANCE:
            return f"{doc['id']}/{para} ({i}, {j}): score {r['score']!r} != {expected!r}"
        return ""

    def response_problem(self, status: int, payload: object, top_k: int) -> str:
        """Empty when the response is right, else what is wrong with it."""
        if status != 200:
            return f"status {status}"
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            return "malformed response"
        results = payload["results"]
        if len(results) != top_k:
            return f"{len(results)} results, expected {top_k}"
        try:
            for r in results:
                problem = self.result_problem(r)
                if problem:
                    return problem
            keys = [
                (-r["score"], self.ordinal[r["doc_id"]], r["para_idx"], r["start_token"], r["end_token"])
                for r in results
            ]
        except (AttributeError, KeyError, TypeError) as exc:
            return f"malformed result: {exc!r}"
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "results not in (-score, doc, para, i, j) order"
        return ""
