"""Training objective: logit matrices, span losses, no-answer bias, negative
mining, the boundary filter classifier, and the toy-encoder training loop.
The objective is the paper's fixed true/2 + (aux_start + aux_end)/4; each of
its terms, in the loss functions and the training step, is one _softmax_loss."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
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
    return replace(bundle, no_answer_bias=float(bias))


def _targets(bundle: LogitBundle, answer: tuple[int, int] | None) -> tuple:
    """The target logits of the true, start and end losses: the answer's span,
    start and end logits, or the no-answer bias for all three when the answer
    is None. An answer outside the valid spans raises a ValueError."""
    if answer is None:
        if bundle.no_answer_bias is None:
            raise ValueError("no-answer target requires a no-answer bias")
        return (bundle.no_answer_bias,) * 3
    i, j = answer
    if not (0 <= i <= j < bundle.n_tokens):
        raise ValueError(f"answer span ({i}, {j}) out of range")
    if j - i >= bundle.max_span:
        raise ValueError(f"answer span ({i}, {j}) longer than max span {bundle.max_span}")
    return bundle.matrix[answer], float(bundle.start_logits[i]), float(bundle.end_logits[j])


def _mask_and_means(bundle: LogitBundle) -> tuple[np.ndarray, ...]:
    """The valid-span mask, its per-row and per-column counts, and the masked
    row and column means of the logit matrix that the aux losses pool over."""
    mask = valid_span_mask(bundle.n_tokens, bundle.max_span)
    masked = bundle.matrix * mask
    n_row, n_col = mask.sum(axis=1), mask.sum(axis=0)
    return mask, n_row, n_col, masked.sum(axis=1) / n_row, masked.sum(axis=0) / n_col


def _softmax_loss(
    logits: np.ndarray, extra: float | None, target: float
) -> tuple[float, np.ndarray, float]:
    """-target + logsumexp(logits plus an optional extra class), with the
    softmax of the logits and of the extra class (0.0 without one)."""
    values = logits if extra is None else np.append(logits, extra)
    m = float(np.max(values))
    e = np.exp(values - m)
    total = e.sum()
    p = e / total
    loss = float(-target + (m + float(np.log(total))))
    return loss, p[: len(logits)], 0.0 if extra is None else float(p[-1])


def true_loss(bundle: LogitBundle, answer: tuple[int, int] | None) -> float:
    """Negative log probability of the answer span over all valid spans."""
    target = _targets(bundle, answer)[0]
    mask = valid_span_mask(bundle.n_tokens, bundle.max_span)
    return _softmax_loss(bundle.matrix[mask], bundle.no_answer_bias, target)[0]


def aux_loss_start(bundle: LogitBundle, i_star: int | None) -> float:
    """Start-side loss: raw start logit vs logsumexp of per-row masked means."""
    target = _targets(bundle, None if i_star is None else (i_star, i_star))[1]
    return _softmax_loss(_mask_and_means(bundle)[3], bundle.no_answer_bias, target)[0]


def aux_loss_end(bundle: LogitBundle, j_star: int | None) -> float:
    """End-side counterpart of aux_loss_start over per-column masked means."""
    target = _targets(bundle, None if j_star is None else (j_star, j_star))[2]
    return _softmax_loss(_mask_and_means(bundle)[4], bundle.no_answer_bias, target)[0]


# The paper's fixed weights: the span loss counts half, each aux loss a quarter.
TRUE_WEIGHT = 0.5
AUX_WEIGHT = 0.25


def combined_loss(bundle: LogitBundle, answer: tuple[int, int] | None) -> float:
    """true/2 + (aux_start + aux_end)/4."""
    i_star, j_star = answer if answer is not None else (None, None)
    return TRUE_WEIGHT * true_loss(bundle, answer) + AUX_WEIGHT * (
        aux_loss_start(bundle, i_star) + aux_loss_end(bundle, j_star)
    )


# ---------------------------------------------------------------------------
# Analytic gradients through the toy encoder's trainable layer
# ---------------------------------------------------------------------------


def combined_loss_and_grads(
    H_doc: np.ndarray,
    H_q: np.ndarray,
    config: EncoderConfig,
    answer: tuple[int, int] | None,
    max_span: int,
    no_answer_bias: float | None = None,
) -> tuple[float, dict[str, float], np.ndarray, np.ndarray, float]:
    """Combined loss plus gradients w.r.t. both encoding matrices and the bias.

    Returns (loss, parts, dH_doc, dH_q, d_bias). The three loss terms and
    their softmaxes come from the helpers true_loss and the aux losses use;
    the backward pass flows the softmax-minus-target gradients through the
    logit matrix into the four slices of the document matrix and the
    question marker row.
    """
    b, c = config.boundary_dim, config.coherency_dim
    H = TokenEncodingMatrix(H_doc, config)
    Hq = TokenEncodingMatrix(H_q, config)
    q = question_dense(Hq)
    bundle = compute_logits(H, q, max_span)
    if no_answer_bias is not None:
        bundle = apply_no_answer(bundle, no_answer_bias)
    target_true, target_s, target_e = _targets(bundle, answer)
    L, bias = bundle.matrix, bundle.no_answer_bias
    mask, n_row, n_col, row_means, col_means = _mask_and_means(bundle)
    loss_true, p_flat, p_na_true = _softmax_loss(L[mask], bias, target_true)
    loss_s, p_row, p_na_s = _softmax_loss(row_means, bias, target_s)
    loss_e, p_col, p_na_e = _softmax_loss(col_means, bias, target_e)

    # Each loss's gradient w.r.t. its logits is its softmax less one at the target.
    G_true = np.zeros_like(L)
    G_true[mask] = p_flat
    extra_l1, extra_l2 = np.zeros(bundle.n_tokens), np.zeros(bundle.n_tokens)
    if answer is not None:
        G_true[answer] -= 1.0
        extra_l1[answer[0]] -= AUX_WEIGHT
        extra_l2[answer[1]] -= AUX_WEIGHT
    G_s = mask * (p_row / n_row)[:, None]
    G_e = mask * (p_col / n_col)[None, :]
    G = TRUE_WEIGHT * G_true + AUX_WEIGHT * (G_s + G_e)
    no = 1.0 if answer is None else 0.0
    d_bias = TRUE_WEIGHT * (p_na_true - no) + AUX_WEIGHT * ((p_na_s - no) + (p_na_e - no))

    # L = l1 (+) l2 + c' * C, with l1 = H1 q1, l2 = H2 q2, C = H3 H4^T.
    d_l1 = G.sum(axis=1) + extra_l1
    d_l2 = G.sum(axis=0) + extra_l2
    d_C = q.coherency * G
    d_cq = float((G * (H.coh_head_cols @ H.coh_tail_cols.T)).sum())

    dH = np.zeros_like(H.data)
    dH[:, :b] = np.outer(d_l1, q.start)
    dH[:, b : 2 * b] = np.outer(d_l2, q.end)
    dH[:, 2 * b : 2 * b + c] = d_C @ H.coh_tail_cols
    dH[:, 2 * b + c :] = d_C.T @ H.coh_head_cols

    dHq = np.zeros_like(Hq.data)
    dHq[0, :b] = H.start_cols.T @ d_l1
    dHq[0, b : 2 * b] = H.end_cols.T @ d_l2
    dHq[0, 2 * b : 2 * b + c] = d_cq * Hq.coh_tail_cols[0]
    dHq[0, 2 * b + c :] = d_cq * Hq.coh_head_cols[0]

    loss = TRUE_WEIGHT * loss_true + AUX_WEIGHT * (loss_s + loss_e)
    parts = {"true": loss_true, "aux_start": loss_s, "aux_end": loss_e, "combined": loss}
    return loss, parts, dH, dHq, 0.0 if bias is None else float(d_bias)


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
    """Settings of train_encoder. The loss weights and the no-answer bias's
    starting value (0.0) are fixed, as in the paper."""

    learning_rate: float = 0.05
    epochs: int = 10
    seed: int = 0
    max_span: int = 20
    negatives_per_paragraph: int = 2

    def __post_init__(self) -> None:
        counts = {"epochs": 1, "seed": 0, "max_span": 1, "negatives_per_paragraph": 0}
        for name, least in counts.items():  # each count's least value
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be a finite number > 0, not {lr!r}")


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
    doc_bases: dict[tuple[str, int], np.ndarray],
    examples: Sequence[TrainExample],
    encoder: ToyEncoder,
    seed: int,
) -> dict[str, float]:
    """Fit the boundary filter on current encodings and report validation P/R.
    doc_bases holds each paragraph's base_document, so a paragraph's
    encoding is its base times the current linear layer."""
    answers: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for ex in examples:
        if ex.answer is not None:
            answers.setdefault((ex.doc_id, ex.para_idx), []).append(ex.answer)
    start_vecs, start_labels, end_vecs, end_labels = [], [], [], []
    for key, spans in sorted(answers.items()):
        H = TokenEncodingMatrix(doc_bases[key] @ encoder.linear.T, encoder.config)
        starts = {i for i, _ in spans}
        ends = {j for _, j in spans}
        start_vecs.append(H.start_cols)
        end_vecs.append(H.end_cols)
        start_labels.append([1.0 if t in starts else 0.0 for t in range(H.n_tokens)])
        end_labels.append([1.0 if t in ends else 0.0 for t in range(H.n_tokens)])
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
    """SGD over the trainable linear layer and the no-answer bias, which
    starts at 0.0.

    Deterministic given the config seed; each epoch record carries the mean
    loss parts plus the boundary filter's validation precision/recall on the
    epoch's encodings. A step whose loss or updated weights are not finite
    has diverged, and raises ValueError naming the epoch and the learning rate.
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

    bias = 0.0
    rng = np.random.default_rng(config.seed + 1)
    history: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        sums = {"true": 0.0, "aux_start": 0.0, "aux_end": 0.0, "combined": 0.0}
        for idx in order:
            ex = examples[idx]
            base_d = doc_bases[(ex.doc_id, ex.para_idx)]
            base_q = q_bases[idx]
            with np.errstate(all="ignore"):  # a diverging step is refused below, not warned of
                H_doc = base_d @ encoder.linear.T
                H_q = base_q @ encoder.linear.T
                loss, parts, dH, dHq, d_bias = combined_loss_and_grads(
                    H_doc, H_q, encoder.config, ex.answer, config.max_span, bias
                )
                d_linear = dH.T @ base_d + dHq.T @ base_q
                encoder.linear -= config.learning_rate * d_linear
                bias -= config.learning_rate * d_bias
            if not (math.isfinite(loss) and math.isfinite(bias) and np.isfinite(encoder.linear).all()):
                raise ValueError(
                    f"training diverged in epoch {epoch + 1} of {config.epochs}: a loss or "
                    f"weight is not finite at learning_rate {config.learning_rate}"
                )
            for k in sums:
                sums[k] += parts[k]
        record = {k: v / len(examples) for k, v in sums.items()}
        record["epoch"] = float(epoch)
        record["no_answer_bias"] = bias
        record.update(_boundary_filter_metrics(doc_bases, examples, encoder, config.seed))
        history.append(record)
    return history
