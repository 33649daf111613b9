"""Training objective: logit matrices, span losses, no-answer bias, negative
mining, the boundary filter classifier, and the toy-encoder training loop."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import CorpusStore, Paragraph, QaRecord, tokenize
from .dense import (
    EncoderConfig,
    QueryDenseVector,
    TokenEncodingMatrix,
    ToyEncoder,
    question_dense,
)


@dataclass
class LogitBundle:
    """Start logits, end logits, and the full span logit matrix.

    matrix[i, j] = start_logits[i] + end_logits[j] + coherency term; spans with
    j < i or j - i >= max_span are excluded from every partition function. A
    non-None no_answer_bias adds one extra exp(bias) class to each partition.
    """

    start_logits: np.ndarray  # (T,)
    end_logits: np.ndarray  # (T,)
    matrix: np.ndarray  # (T, T)
    max_span: int
    no_answer_bias: float | None = None

    @property
    def n_tokens(self) -> int:
        return self.start_logits.shape[0]


def valid_span_mask(n_tokens: int, max_span: int) -> np.ndarray:
    """Boolean (T, T) mask of spans with i <= j and j - i < max_span."""
    i = np.arange(n_tokens)[:, None]
    j = np.arange(n_tokens)[None, :]
    return (j >= i) & (j - i < max_span)


def compute_logits(
    H: TokenEncodingMatrix, q: QueryDenseVector, max_span: int
) -> LogitBundle:
    """Span logit matrix built from three matrix products and a broadcast add."""
    l1 = H.start_cols @ q.start
    l2 = H.end_cols @ q.end
    coh = H.coh_head_cols @ H.coh_tail_cols.T
    matrix = q.coherency * coh + l1[:, None] + l2[None, :]
    return LogitBundle(start_logits=l1, end_logits=l2, matrix=matrix, max_span=max_span)


def apply_no_answer(bundle: LogitBundle, bias: float) -> LogitBundle:
    """Augment the bundle with a trainable no-answer class of logit `bias`."""
    return LogitBundle(
        start_logits=bundle.start_logits,
        end_logits=bundle.end_logits,
        matrix=bundle.matrix,
        max_span=bundle.max_span,
        no_answer_bias=float(bias),
    )


def _check_answer(bundle: LogitBundle, answer: tuple[int, int] | None) -> None:
    if answer is None:
        if bundle.no_answer_bias is None:
            raise ValueError("no-answer target requires a no-answer bias")
        return
    i, j = answer
    if not (0 <= i <= j < bundle.n_tokens):
        raise ValueError(f"answer span ({i}, {j}) out of range")
    if j - i >= bundle.max_span:
        raise ValueError(f"answer span ({i}, {j}) longer than max span {bundle.max_span}")


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def true_loss(bundle: LogitBundle, answer: tuple[int, int] | None) -> float:
    """Negative log probability of the answer span over all valid spans."""
    _check_answer(bundle, answer)
    mask = valid_span_mask(bundle.n_tokens, bundle.max_span)
    logits = bundle.matrix[mask]
    if bundle.no_answer_bias is not None:
        logits = np.append(logits, bundle.no_answer_bias)
    target = bundle.no_answer_bias if answer is None else bundle.matrix[answer]
    return float(-target + _logsumexp(logits))


def _aux_loss(
    target_logit: float | None,
    pooled: np.ndarray,
    no_answer_bias: float | None,
) -> float:
    values = pooled
    if no_answer_bias is not None:
        values = np.append(values, no_answer_bias)
    target = no_answer_bias if target_logit is None else target_logit
    return float(-target + _logsumexp(values))


def aux_loss_start(bundle: LogitBundle, i_star: int | None) -> float:
    """Start-side loss: raw start logit vs logsumexp of per-row masked means."""
    answer = None if i_star is None else (i_star, i_star)
    _check_answer(bundle, answer)
    mask = valid_span_mask(bundle.n_tokens, bundle.max_span)
    row_means = (bundle.matrix * mask).sum(axis=1) / mask.sum(axis=1)
    target = None if i_star is None else float(bundle.start_logits[i_star])
    return _aux_loss(target, row_means, bundle.no_answer_bias)


def aux_loss_end(bundle: LogitBundle, j_star: int | None) -> float:
    """End-side counterpart of aux_loss_start over per-column masked means."""
    answer = None if j_star is None else (j_star, j_star)
    _check_answer(bundle, answer)
    mask = valid_span_mask(bundle.n_tokens, bundle.max_span)
    col_means = (bundle.matrix * mask).sum(axis=0) / mask.sum(axis=0)
    target = None if j_star is None else float(bundle.end_logits[j_star])
    return _aux_loss(target, col_means, bundle.no_answer_bias)


def combined_loss(
    bundle: LogitBundle,
    answer: tuple[int, int] | None,
    weight_true: float = 0.5,
    weight_aux: float = 0.25,
) -> float:
    """true/2 + (aux_start + aux_end)/4 at the default weights."""
    i_star, j_star = answer if answer is not None else (None, None)
    return (
        weight_true * true_loss(bundle, answer)
        + weight_aux * aux_loss_start(bundle, i_star)
        + weight_aux * aux_loss_end(bundle, j_star)
    )


# ---------------------------------------------------------------------------
# Analytic gradients through the toy encoder's trainable layer
# ---------------------------------------------------------------------------


def _softmax_with_extra(values: np.ndarray, extra: float | None) -> tuple[np.ndarray, float]:
    """Softmax over values plus an optional extra class; returns (probs, extra_prob)."""
    if extra is not None:
        values = np.append(values, extra)
    m = np.max(values)
    e = np.exp(values - m)
    p = e / e.sum()
    if extra is not None:
        return p[:-1], float(p[-1])
    return p, 0.0


def combined_loss_and_grads(
    H_doc: np.ndarray,
    H_q: np.ndarray,
    config: EncoderConfig,
    answer: tuple[int, int] | None,
    max_span: int,
    no_answer_bias: float | None = None,
    weight_true: float = 0.5,
    weight_aux: float = 0.25,
) -> tuple[float, dict[str, float], np.ndarray, np.ndarray, float]:
    """Combined loss plus gradients w.r.t. both encoding matrices and the bias.

    Returns (loss, parts, dH_doc, dH_q, d_bias). The backward pass mirrors the
    forward composition exactly: gradients flow through the logit matrix into
    the four slices of the document matrix and the question marker row.
    """
    b, c = config.boundary_dim, config.coherency_dim
    H = TokenEncodingMatrix(H_doc, config)
    q_row = np.asarray(H_q, dtype=np.float64)[0]
    q1, q2 = q_row[:b], q_row[b : 2 * b]
    q3, q4 = q_row[2 * b : 2 * b + c], q_row[2 * b + c :]
    q = QueryDenseVector(start=q1, end=q2, coherency=float(np.dot(q3, q4)))

    bundle = compute_logits(H, q, max_span)
    if no_answer_bias is not None:
        bundle = apply_no_answer(bundle, no_answer_bias)
    _check_answer(bundle, answer)
    T = bundle.n_tokens
    mask = valid_span_mask(T, max_span)
    L = bundle.matrix
    bias = bundle.no_answer_bias

    # True loss.
    flat = L[mask]
    p_flat, p_na_true = _softmax_with_extra(flat, bias)
    P = np.zeros_like(L)
    P[mask] = p_flat
    loss_true = float(
        -(bias if answer is None else L[answer]) + _logsumexp(np.append(flat, bias) if bias is not None else flat)
    )
    G_true = P.copy()
    d_bias_true = p_na_true
    if answer is None:
        d_bias_true -= 1.0
    else:
        G_true[answer] -= 1.0

    # Aux losses over masked row/column means.
    n_row = mask.sum(axis=1)
    n_col = mask.sum(axis=0)
    row_means = (L * mask).sum(axis=1) / n_row
    col_means = (L * mask).sum(axis=0) / n_col
    p_row, p_na_s = _softmax_with_extra(row_means, bias)
    p_col, p_na_e = _softmax_with_extra(col_means, bias)
    i_star, j_star = answer if answer is not None else (None, None)
    loss_s = _aux_loss(
        None if i_star is None else float(bundle.start_logits[i_star]), row_means, bias
    )
    loss_e = _aux_loss(
        None if j_star is None else float(bundle.end_logits[j_star]), col_means, bias
    )
    G_s = mask * (p_row / n_row)[:, None]
    G_e = mask * (p_col / n_col)[None, :]
    d_bias_s = p_na_s - (1.0 if i_star is None else 0.0)
    d_bias_e = p_na_e - (1.0 if j_star is None else 0.0)

    G = weight_true * G_true + weight_aux * (G_s + G_e)
    extra_l1 = np.zeros(T)
    extra_l2 = np.zeros(T)
    if i_star is not None:
        extra_l1[i_star] -= weight_aux
    if j_star is not None:
        extra_l2[j_star] -= weight_aux
    d_bias = weight_true * d_bias_true + weight_aux * (d_bias_s + d_bias_e)
    if bias is None:
        d_bias = 0.0

    # L = l1 (+) l2 + c' * C, with l1 = H1 q1, l2 = H2 q2, C = H3 H4^T.
    d_l1 = G.sum(axis=1) + extra_l1
    d_l2 = G.sum(axis=0) + extra_l2
    d_C = q.coherency * G
    d_cq = float((G * (H.coh_head_cols @ H.coh_tail_cols.T)).sum())

    dH = np.zeros_like(H.data)
    dH[:, :b] = np.outer(d_l1, q1)
    dH[:, b : 2 * b] = np.outer(d_l2, q2)
    dH[:, 2 * b : 2 * b + c] = d_C @ H.coh_tail_cols
    dH[:, 2 * b + c :] = d_C.T @ H.coh_head_cols

    dHq = np.zeros_like(np.asarray(H_q, dtype=np.float64))
    dHq[0, :b] = H.start_cols.T @ d_l1
    dHq[0, b : 2 * b] = H.end_cols.T @ d_l2
    dHq[0, 2 * b : 2 * b + c] = d_cq * q4
    dHq[0, 2 * b + c :] = d_cq * q3

    loss = weight_true * loss_true + weight_aux * (loss_s + loss_e)
    parts = {"true": loss_true, "aux_start": loss_s, "aux_end": loss_e, "combined": loss}
    return loss, parts, dH, dHq, float(d_bias)


# ---------------------------------------------------------------------------
# Negative mining
# ---------------------------------------------------------------------------


@dataclass
class PoolQuestion:
    """A question tagged with the article and paragraph it belongs to."""

    text: str
    doc_id: str
    para_idx: int


def mine_negatives(
    doc_id: str,
    para_idx: int,
    pool: Sequence[PoolQuestion],
    embed: Callable[[str], np.ndarray],
    rng: np.random.Generator,
) -> list[PoolQuestion]:
    """Pick hard negatives for one paragraph: one from a different article and
    one from the same article but a different paragraph, each maximizing inner
    product with a randomly sampled positive question of this paragraph."""
    positives = [p for p in pool if p.doc_id == doc_id and p.para_idx == para_idx]
    if not positives:
        raise ValueError(f"no positive question for ({doc_id}, {para_idx}) in pool")
    anchor = positives[int(rng.integers(len(positives)))]
    anchor_vec = embed(anchor.text)

    negatives: list[PoolQuestion] = []
    classes = [
        ("different article", [p for p in pool if p.doc_id != doc_id]),
        (
            "same article, different paragraph",
            [p for p in pool if p.doc_id == doc_id and p.para_idx != para_idx],
        ),
    ]
    for label, candidates in classes:
        if not candidates:
            warnings.warn(f"negative pool has no {label} question; skipping")
            continue
        sims = np.array([float(np.dot(embed(cand.text), anchor_vec)) for cand in candidates])
        negatives.append(candidates[int(np.argmax(sims))])
    return negatives


# ---------------------------------------------------------------------------
# Boundary filter classifier
# ---------------------------------------------------------------------------


@dataclass
class FilterModel:
    """Two single-layer logistic heads scoring start / end answerability."""

    start_weights: np.ndarray
    start_bias: float
    end_weights: np.ndarray
    end_bias: float
    threshold: float = 0.5

    @staticmethod
    def keep_all(boundary_dim: int) -> "FilterModel":
        return FilterModel(
            start_weights=np.zeros(boundary_dim),
            start_bias=0.0,
            end_weights=np.zeros(boundary_dim),
            end_bias=0.0,
            threshold=0.0,
        )

    def start_scores(self, vectors: np.ndarray) -> np.ndarray:
        return _sigmoid(vectors @ self.start_weights + self.start_bias)

    def end_scores(self, vectors: np.ndarray) -> np.ndarray:
        return _sigmoid(vectors @ self.end_weights + self.end_bias)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fit_logistic(
    vectors: np.ndarray, labels: np.ndarray, lr: float, epochs: int
) -> tuple[np.ndarray, float]:
    w = np.zeros(vectors.shape[1])
    b = 0.0
    y = labels.astype(np.float64)
    for _ in range(epochs):
        p = _sigmoid(vectors @ w + b)
        g = p - y
        w -= lr * (vectors.T @ g) / len(y)
        b -= lr * float(g.mean())
    return w, b


def train_filter(
    start_vectors: np.ndarray,
    start_labels: np.ndarray,
    end_vectors: np.ndarray,
    end_labels: np.ndarray,
    threshold: float = 0.5,
    lr: float = 1.0,
    epochs: int = 200,
    seed: int = 0,
    val_fraction: float = 0.2,
) -> tuple[FilterModel, dict[str, float]]:
    """Fit the two logistic heads by gradient descent; report validation P/R at
    the threshold. Labels mark tokens that begin (resp. end) a gold answer."""
    for name, labels in (("start", start_labels), ("end", end_labels)):
        if len(np.unique(labels)) < 2:
            raise ValueError(f"{name} labels contain a single class")
    rng = np.random.default_rng(seed)

    def split(vectors, labels):
        n = len(labels)
        order = rng.permutation(n)
        n_val = max(1, int(n * val_fraction))
        val, train = order[:n_val], order[n_val:]
        return vectors[train], labels[train], vectors[val], labels[val]

    sx, sy, sxv, syv = split(start_vectors, start_labels)
    ex, ey, exv, eyv = split(end_vectors, end_labels)
    sw, sb = _fit_logistic(sx, sy, lr, epochs)
    ew, eb = _fit_logistic(ex, ey, lr, epochs)
    model = FilterModel(sw, sb, ew, eb, threshold)

    def precision_recall(scores, labels):
        pred = scores >= threshold
        tp = float(np.sum(pred & (labels > 0)))
        precision = tp / max(1.0, float(pred.sum()))
        recall = tp / max(1.0, float((labels > 0).sum()))
        return precision, recall

    sp, sr = precision_recall(model.start_scores(sxv), syv)
    ep, er = precision_recall(model.end_scores(exv), eyv)
    metrics = {
        "start_precision": sp,
        "start_recall": sr,
        "end_precision": ep,
        "end_recall": er,
    }
    return model, metrics


# ---------------------------------------------------------------------------
# Toy-encoder training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainingConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    seed: int = 0
    max_span: int = 20
    negatives_per_paragraph: int = 2
    no_answer_bias_init: float = 0.0
    weight_true: float = 0.5
    weight_aux: float = 0.25

    def __post_init__(self) -> None:
        if abs(self.weight_true + 2 * self.weight_aux - 1.0) > 1e-12:
            raise ValueError("loss weights must sum to 1")
        if self.negatives_per_paragraph < 0:
            raise ValueError("negatives_per_paragraph must be >= 0")


def span_from_chars(para: Paragraph, char_start: int, char_end: int) -> tuple[int, int]:
    """Token span (i, j) covering a character range of the paragraph text."""
    covered = [
        t_idx
        for t_idx, tok in enumerate(para.tokens)
        if tok.char_end > char_start and tok.char_start < char_end
    ]
    if not covered:
        raise ValueError(f"character range ({char_start}, {char_end}) covers no token")
    return covered[0], covered[-1]


@dataclass
class TrainExample:
    doc_id: str
    para_idx: int
    question_text: str
    answer: tuple[int, int] | None  # None marks a mined negative


def build_training_examples(
    corpus: CorpusStore,
    qa: Sequence[QaRecord],
    encoder: ToyEncoder,
    config: TrainingConfig,
) -> list[TrainExample]:
    """Positive examples from the QA set plus mined no-answer negatives. A
    record whose answer_span names an unknown document or paragraph, or
    covers no token, is refused with a ValueError that names its question."""
    examples: list[TrainExample] = []
    pool: list[PoolQuestion] = []
    for rec in qa:
        if rec.doc_id is None or rec.answer_span is None:
            continue
        para_idx, c0, c1 = rec.answer_span
        try:
            paragraphs = corpus.doc(rec.doc_id).paragraphs
        except KeyError:
            raise ValueError(
                f"question {rec.question!r}: unknown document {rec.doc_id!r}"
            ) from None
        if not 0 <= para_idx < len(paragraphs):
            raise ValueError(
                f"question {rec.question!r}: document {rec.doc_id!r} has no paragraph "
                f"{para_idx} (it has {len(paragraphs)})"
            )
        try:
            answer = span_from_chars(paragraphs[para_idx], c0, c1)
        except ValueError as exc:
            raise ValueError(f"question {rec.question!r}: {exc}") from None
        examples.append(TrainExample(rec.doc_id, para_idx, rec.question, answer))
        pool.append(PoolQuestion(rec.question, rec.doc_id, para_idx))

    if config.negatives_per_paragraph == 0 or not pool:
        return examples

    def embed(text: str) -> np.ndarray:
        H = encoder.encode_question(tokenize(text))
        return question_dense(H).flattened()

    rng = np.random.default_rng(config.seed)
    out = list(examples)
    for doc_id, para_idx in sorted({(e.doc_id, e.para_idx) for e in examples}):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            negatives = mine_negatives(doc_id, para_idx, pool, embed, rng)
        for neg in negatives[: config.negatives_per_paragraph]:
            out.append(TrainExample(doc_id, para_idx, neg.text, None))
    return out


def _boundary_filter_metrics(
    corpus: CorpusStore,
    examples: Sequence[TrainExample],
    encoder: ToyEncoder,
    seed: int,
) -> dict[str, float]:
    """Fit the boundary filter on current encodings and report validation P/R."""
    answers: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for ex in examples:
        if ex.answer is not None:
            answers.setdefault((ex.doc_id, ex.para_idx), []).append(ex.answer)
    start_vecs, start_labels, end_vecs, end_labels = [], [], [], []
    for (doc_id, para_idx), spans in sorted(answers.items()):
        para = corpus.doc(doc_id).paragraphs[para_idx]
        H = encoder.encode_document(para.tokens)
        starts = {i for i, _ in spans}
        ends = {j for _, j in spans}
        start_vecs.append(H.start_cols)
        end_vecs.append(H.end_cols)
        start_labels.append([1.0 if t in starts else 0.0 for t in range(para.n_tokens)])
        end_labels.append([1.0 if t in ends else 0.0 for t in range(para.n_tokens)])
    try:
        _, metrics = train_filter(
            np.vstack(start_vecs),
            np.concatenate([np.asarray(x) for x in start_labels]),
            np.vstack(end_vecs),
            np.concatenate([np.asarray(x) for x in end_labels]),
            epochs=100,
            seed=seed,
        )
    except ValueError:  # degenerate single-class epoch data
        metrics = {k: float("nan") for k in
                   ("start_precision", "start_recall", "end_precision", "end_recall")}
    return {f"filter_{k}": v for k, v in metrics.items()}


def train_encoder(
    corpus: CorpusStore,
    qa: Sequence[QaRecord],
    encoder: ToyEncoder,
    config: TrainingConfig,
) -> list[dict[str, float]]:
    """SGD over the trainable linear layer and the no-answer bias.

    Deterministic given the config seed; each epoch record carries the mean
    loss parts plus the boundary filter's validation precision/recall on the
    epoch's encodings.
    """
    examples = build_training_examples(corpus, qa, encoder, config)
    if not examples:
        raise ValueError("no trainable examples")
    # Base (pre-linear-layer) encodings never change during training.
    doc_bases: dict[tuple[str, int], np.ndarray] = {}
    q_bases: list[np.ndarray] = []
    for ex in examples:
        key = (ex.doc_id, ex.para_idx)
        if key not in doc_bases:
            para = corpus.doc(ex.doc_id).paragraphs[ex.para_idx]
            doc_bases[key] = encoder.base_document(para.tokens)
        q_bases.append(encoder.base_question(tokenize(ex.question_text)))

    bias = config.no_answer_bias_init
    rng = np.random.default_rng(config.seed + 1)
    history: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        sums = {"true": 0.0, "aux_start": 0.0, "aux_end": 0.0, "combined": 0.0}
        for idx in order:
            ex = examples[idx]
            base_d = doc_bases[(ex.doc_id, ex.para_idx)]
            base_q = q_bases[idx]
            H_doc = base_d @ encoder.linear.T
            H_q = base_q @ encoder.linear.T
            loss, parts, dH, dHq, d_bias = combined_loss_and_grads(
                H_doc, H_q, encoder.config, ex.answer, config.max_span, bias,
                weight_true=config.weight_true, weight_aux=config.weight_aux,
            )
            d_linear = dH.T @ base_d + dHq.T @ base_q
            encoder.linear -= config.learning_rate * d_linear
            bias -= config.learning_rate * d_bias
            for k in sums:
                sums[k] += parts[k]
        record = {k: v / len(examples) for k, v in sums.items()}
        record["epoch"] = float(epoch)
        record["no_answer_bias"] = bias
        record.update(_boundary_filter_metrics(corpus, examples, encoder, config.seed))
        history.append(record)
    return history
