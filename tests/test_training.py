"""Logit matrices, span losses, no-answer bias, negative mining, filter, training loop."""

import math
import warnings

import numpy as np
import pytest

from phraseindex.corpus import CorpusStore, Document, Paragraph, QaRecord, tokenize
from phraseindex.dense import EncoderConfig, TokenEncodingMatrix, ToyEncoder, question_dense
from phraseindex.training import (
    FilterModel,
    LogitBundle,
    PoolQuestion,
    TrainingConfig,
    apply_no_answer,
    aux_loss_end,
    aux_loss_start,
    combined_loss,
    combined_loss_and_grads,
    compute_logits,
    mine_negatives,
    span_from_chars,
    train_encoder,
    train_filter,
    true_loss,
    valid_span_mask,
)

CFG = EncoderConfig(dim=16, boundary_dim=6, coherency_dim=2)


def random_instance(rng, n_tokens, max_span=4):
    enc = ToyEncoder(CFG, seed=int(rng.integers(1000)))
    words = [f"w{int(k)}" for k in rng.integers(0, 30, size=n_tokens)]
    H = enc.encode_document(tokenize(" ".join(words)))
    q = question_dense(enc.encode_question(tokenize("what is it")))
    return H, q, compute_logits(H, q, max_span)


def brute_force_matrix(H, q):
    from phraseindex.dense import dense_score, phrase_dense

    T = H.n_tokens
    out = np.zeros((T, T))
    for i in range(T):
        for j in range(T):
            if j >= i:
                out[i, j] = dense_score(q, phrase_dense(H, i, j))
            else:
                # The composition is defined for every cell even though only
                # valid spans enter any partition function.
                out[i, j] = (
                    float(H.start_cols[i] @ q.start)
                    + float(H.end_cols[j] @ q.end)
                    + q.coherency * float(H.coh_head_cols[i] @ H.coh_tail_cols[j])
                )
    return out


class TestComputeLogits:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        H, q, bundle = random_instance(rng, 1)
        from phraseindex.dense import dense_score, phrase_dense

        assert bundle.matrix.shape == (1, 1)
        assert bundle.matrix[0, 0] == pytest.approx(
            dense_score(q, phrase_dense(H, 0, 0)), abs=1e-9
        )

    def test_all_zero_encodings(self):
        H = TokenEncodingMatrix(np.zeros((4, CFG.dim)), CFG)
        q = question_dense(TokenEncodingMatrix(np.zeros((1, CFG.dim)), CFG))
        bundle = compute_logits(H, q, 3)
        assert not bundle.matrix.any()

    def test_matches_per_pair_brute_force(self):
        rng = np.random.default_rng(1)
        H, q, bundle = random_instance(rng, 8)
        np.testing.assert_allclose(bundle.matrix, brute_force_matrix(H, q), atol=1e-9)

    def test_property_up_to_32_tokens(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            H, q, bundle = random_instance(rng, int(rng.integers(1, 33)))
            assert np.max(np.abs(bundle.matrix - brute_force_matrix(H, q))) < 1e-6


class TestTrueLoss:
    def test_single_valid_span_gives_zero(self):
        rng = np.random.default_rng(3)
        _, _, bundle = random_instance(rng, 1, max_span=1)
        assert true_loss(bundle, (0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_two_spans_equal_logits(self):
        bundle = LogitBundle(
            start_logits=np.zeros(2),
            end_logits=np.zeros(2),
            matrix=np.zeros((2, 2)),
            max_span=1,  # valid spans: (0,0) and (1,1)
        )
        assert true_loss(bundle, (0, 0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            _, _, bundle = random_instance(rng, 6, max_span=3)
            mask = valid_span_mask(6, 3)
            direct = -bundle.matrix[1, 2] + math.log(np.exp(bundle.matrix[mask]).sum())
            assert true_loss(bundle, (1, 2)) == pytest.approx(direct, abs=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        _, _, bundle = random_instance(rng, 7, max_span=3)
        shifted = LogitBundle(
            start_logits=bundle.start_logits,
            end_logits=bundle.end_logits,
            matrix=bundle.matrix + 57.0,
            max_span=3,
        )
        assert true_loss(shifted, (2, 3)) == pytest.approx(
            true_loss(bundle, (2, 3)), abs=1e-9
        )

    def test_answer_validation(self):
        rng = np.random.default_rng(6)
        _, _, bundle = random_instance(rng, 5, max_span=2)
        with pytest.raises(ValueError, match="out of range"):
            true_loss(bundle, (4, 5))
        with pytest.raises(ValueError, match="longer"):
            true_loss(bundle, (0, 3))

    def test_nonnegative_when_target_in_support(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, _, bundle = random_instance(rng, int(rng.integers(1, 10)), max_span=3)
            assert true_loss(bundle, (0, 0)) >= -1e-12


class TestAuxLosses:
    def test_uniform_matrix_gives_log_t(self):
        T = 5
        bundle = LogitBundle(
            start_logits=np.full(T, 1.7),
            end_logits=np.full(T, 0.3),
            matrix=np.full((T, T), 1.7),
            max_span=2,
        )
        assert aux_loss_start(bundle, 2) == pytest.approx(math.log(T), abs=1e-12)

    def test_single_token_case(self):
        rng = np.random.default_rng(8)
        _, _, bundle = random_instance(rng, 1)
        expected = -float(bundle.start_logits[0]) + float(bundle.matrix[0, 0])
        assert aux_loss_start(bundle, 0) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            _, _, bundle = random_instance(rng, 6, max_span=3)
            mask = valid_span_mask(6, 3)
            means = (bundle.matrix * mask).sum(axis=1) / mask.sum(axis=1)
            direct = -float(bundle.start_logits[1]) + math.log(np.exp(means).sum())
            assert aux_loss_start(bundle, 1) == pytest.approx(direct, abs=1e-10)
            col_means = (bundle.matrix * mask).sum(axis=0) / mask.sum(axis=0)
            direct_end = -float(bundle.end_logits[2]) + math.log(np.exp(col_means).sum())
            assert aux_loss_end(bundle, 2) == pytest.approx(direct_end, abs=1e-10)


class TestCombinedLoss:
    def test_equal_components_pass_through(self):
        # With a uniform 1x1 instance every component is 0, so the sum is too.
        bundle = LogitBundle(np.zeros(1), np.zeros(1), np.zeros((1, 1)), max_span=1)
        assert combined_loss(bundle, (0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_is_the_stated_weighted_sum(self):
        rng = np.random.default_rng(10)
        _, _, bundle = random_instance(rng, 6, max_span=3)
        expected = (
            0.5 * true_loss(bundle, (1, 2))
            + 0.25 * aux_loss_start(bundle, 1)
            + 0.25 * aux_loss_end(bundle, 2)
        )
        assert combined_loss(bundle, (1, 2)) == pytest.approx(expected, abs=1e-12)


class TestNoAnswer:
    def test_very_negative_bias_recovers_unaugmented_loss(self):
        rng = np.random.default_rng(11)
        _, _, bundle = random_instance(rng, 5, max_span=2)
        augmented = apply_no_answer(bundle, -1e4)  # exp underflows to exactly 0
        assert true_loss(augmented, (1, 2)) == pytest.approx(
            true_loss(bundle, (1, 2)), abs=1e-12
        )

    def test_single_span_bias_zero_no_answer_target(self):
        bundle = LogitBundle(np.zeros(1), np.zeros(1), np.zeros((1, 1)), max_span=1)
        augmented = apply_no_answer(bundle, 0.0)
        assert true_loss(augmented, None) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_enumeration_with_extra_class(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            _, _, bundle = random_instance(rng, 5, max_span=3)
            bias = float(rng.normal())
            augmented = apply_no_answer(bundle, bias)
            mask = valid_span_mask(5, 3)
            z = np.exp(bundle.matrix[mask]).sum() + math.exp(bias)
            assert true_loss(augmented, (0, 1)) == pytest.approx(
                -bundle.matrix[0, 1] + math.log(z), abs=1e-10
            )
            assert true_loss(augmented, None) == pytest.approx(
                -bias + math.log(z), abs=1e-10
            )

    def test_no_answer_target_requires_bias(self):
        bundle = LogitBundle(np.zeros(1), np.zeros(1), np.zeros((1, 1)), max_span=1)
        with pytest.raises(ValueError):
            true_loss(bundle, None)


class TestGradients:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(13)
        cfg = EncoderConfig(dim=12, boundary_dim=4, coherency_dim=2)
        enc = ToyEncoder(cfg, seed=21)
        step = 1e-3
        for trial in range(5):
            T = int(rng.integers(2, 7))
            words = " ".join(f"w{int(k)}" for k in rng.integers(0, 20, size=T))
            base_d = enc.base_document(tokenize(words))
            base_q = enc.base_question(tokenize("why though"))
            V = np.eye(cfg.dim) + 0.1 * rng.normal(size=(cfg.dim, cfg.dim))
            answer = (0, min(1, T - 1))
            bias = float(rng.normal())

            def loss_at(V_):
                loss, *_ = combined_loss_and_grads(
                    base_d @ V_.T, base_q @ V_.T, cfg, answer, 3, bias
                )
                return loss

            _, _, dH, dHq, _ = combined_loss_and_grads(
                base_d @ V.T, base_q @ V.T, cfg, answer, 3, bias
            )
            dV = dH.T @ base_d + dHq.T @ base_q
            for a, b in [(0, 0), (3, 5), (7, 11), (11, 2)]:
                plus, minus = V.copy(), V.copy()
                plus[a, b] += step
                minus[a, b] -= step
                fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
                denom = max(1e-8, abs(fd) + abs(dV[a, b]))
                assert abs(fd - dV[a, b]) / denom < 1e-4


@pytest.mark.parametrize("bias, answer", [
    (None, (1, 2)), (0.7, (1, 2)), (-2.5, (0, 0)), (0.7, None), (-30.0, None),
], ids=["no_bias", "bias", "bias_first_token", "bias_no_answer", "low_bias_no_answer"])
def test_loss_and_grads_returns_the_public_losses_exactly(bias, answer):
    # One path computes every loss: the training step's loss and parts are
    # the very values the public loss functions give on the same logits.
    rng = np.random.default_rng(18)
    for _ in range(20):
        T = int(rng.integers(3, 9))
        H_doc = rng.normal(size=(T, CFG.dim))
        H_q = rng.normal(size=(int(rng.integers(1, 4)), CFG.dim))
        loss, parts, *_ = combined_loss_and_grads(H_doc, H_q, CFG, answer, 3, bias)
        bundle = compute_logits(
            TokenEncodingMatrix(H_doc, CFG), question_dense(TokenEncodingMatrix(H_q, CFG)), 3
        )
        if bias is not None:
            bundle = apply_no_answer(bundle, bias)
        i_star, j_star = answer if answer is not None else (None, None)
        assert parts["true"] == true_loss(bundle, answer)
        assert parts["aux_start"] == aux_loss_start(bundle, i_star)
        assert parts["aux_end"] == aux_loss_end(bundle, j_star)
        assert loss == parts["combined"] == combined_loss(bundle, answer)


def test_loss_and_grads_has_no_bias_gradient_without_a_bias():
    rng = np.random.default_rng(19)
    H_doc, H_q = rng.normal(size=(5, CFG.dim)), rng.normal(size=(2, CFG.dim))
    assert combined_loss_and_grads(H_doc, H_q, CFG, (0, 1), 3)[4] == 0.0
    with pytest.raises(ValueError, match="no-answer bias"):
        combined_loss_and_grads(H_doc, H_q, CFG, None, 3)


class TestMineNegatives:
    @staticmethod
    def embed_with(vectors):
        return lambda text: vectors[text]

    def test_single_foreign_question_is_chosen(self):
        pool = [
            PoolQuestion("pos", "d1", 0),
            PoolQuestion("far", "d2", 0),
        ]
        vectors = {"pos": np.array([1.0, 0.0]), "far": np.array([0.0, 1.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            negs = mine_negatives("d1", 0, pool, self.embed_with(vectors), np.random.default_rng(0))
        assert [n.text for n in negs] == ["far"]

    def test_exact_alignment_wins(self):
        pool = [
            PoolQuestion("pos", "d1", 0),
            PoolQuestion("aligned", "d2", 0),
            PoolQuestion("other", "d3", 0),
            PoolQuestion("sibling", "d1", 1),
        ]
        vectors = {
            "pos": np.array([1.0, 2.0]),
            "aligned": np.array([1.0, 2.0]),
            "other": np.array([-1.0, 0.5]),
            "sibling": np.array([0.3, 0.3]),
        }
        negs = mine_negatives("d1", 0, pool, self.embed_with(vectors), np.random.default_rng(0))
        assert negs[0].text == "aligned"
        assert negs[1].text == "sibling"

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(14)
        pool = [PoolQuestion("pos", "d0", 0)]
        vectors = {"pos": rng.normal(size=4)}
        for k in range(20):
            name = f"q{k}"
            pool.append(PoolQuestion(name, f"d{1 + k % 5}", k))
            vectors[name] = rng.normal(size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            negs = mine_negatives("d0", 0, pool, self.embed_with(vectors), np.random.default_rng(7))
        foreign = [p for p in pool if p.doc_id != "d0"]
        sims = [float(vectors[p.text] @ vectors["pos"]) for p in foreign]
        assert negs[0].text == foreign[int(np.argmax(sims))].text

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        pool = [PoolQuestion(f"p{k}", "d1", 0) for k in range(3)] + [
            PoolQuestion(f"n{k}", "d2", 0) for k in range(3)
        ]
        vectors = {p.text: rng.normal(size=3) for p in pool}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = mine_negatives("d1", 0, pool, self.embed_with(vectors), np.random.default_rng(3))
            second = mine_negatives("d1", 0, pool, self.embed_with(vectors), np.random.default_rng(3))
        assert [n.text for n in first] == [n.text for n in second]

    def test_missing_class_warns_and_skips(self):
        pool = [PoolQuestion("pos", "d1", 0), PoolQuestion("foreign", "d2", 0)]
        vectors = {"pos": np.ones(2), "foreign": np.ones(2)}
        with pytest.warns(UserWarning, match="same article"):
            negs = mine_negatives("d1", 0, pool, self.embed_with(vectors), np.random.default_rng(0))
        assert len(negs) == 1

    def test_no_positive_is_an_error(self):
        with pytest.raises(ValueError, match="no positive"):
            mine_negatives("d1", 0, [], lambda t: np.zeros(2), np.random.default_rng(0))


class TestTrainFilter:
    @staticmethod
    def separable_data(rng, n=120, dim=6, gap=4.0):
        labels = (np.arange(n) % 2).astype(float)
        vectors = rng.normal(size=(n, dim)) * 0.3
        vectors[labels == 1, 0] += gap
        vectors[labels == 0, 0] -= gap
        return vectors, labels

    def test_separable_data_reaches_full_accuracy(self):
        rng = np.random.default_rng(16)
        sx, sy = self.separable_data(rng)
        ex, ey = self.separable_data(rng)
        model, metrics = train_filter(sx, sy, ex, ey, epochs=400, lr=2.0, seed=0)
        assert np.array_equal(model.start_scores(sx) >= 0.5, sy.astype(bool))
        assert np.array_equal(model.end_scores(ex) >= 0.5, ey.astype(bool))
        assert metrics["start_precision"] == 1.0 and metrics["start_recall"] == 1.0

    def test_threshold_zero_keeps_all(self):
        model = FilterModel.keep_all(6)
        scores = model.start_scores(np.random.default_rng(0).normal(size=(10, 6)))
        assert ((scores >= model.threshold)).all()

    def test_boundary_score_is_inclusive(self):
        model = FilterModel(np.zeros(6), 0.0, np.zeros(6), 0.0, threshold=0.5)
        scores = model.start_scores(np.ones((4, 6)))
        assert (scores == 0.5).all()
        assert ((scores >= model.threshold)).all()

    def test_single_class_rejected(self):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(10, 6))
        with pytest.raises(ValueError, match="single class"):
            train_filter(vectors, np.ones(10), vectors, np.arange(10) % 2, seed=0)


class TestSpanFromChars:
    def test_covers_tokens(self):
        para = Paragraph.from_text("alpha beta gamma")
        assert span_from_chars(para, 6, 10) == (1, 1)
        assert span_from_chars(para, 0, 16) == (0, 2)

    def test_no_token_covered(self):
        para = Paragraph.from_text("a  b")
        with pytest.raises(ValueError):
            span_from_chars(para, 1, 2)  # the gap between the tokens


def synthetic_training_setup(n_paras=50, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"v{k}" for k in range(40)]
    docs, qa = [], []
    for d in range(n_paras // 2):
        paras = []
        for p in range(2):
            body = list(rng.choice(words, size=8))
            answer = [f"ans{d}_{p}a", f"ans{d}_{p}b"]
            tokens = body[:4] + answer + body[4:]
            text = " ".join(tokens)
            paras.append(text)
            start = text.index(answer[0])
            end = start + len(" ".join(answer))
            qa.append(
                QaRecord(
                    question=f"find {answer[0]} near {body[0]}",
                    answers=[" ".join(answer)],
                    doc_id=f"doc{d}",
                    answer_span=(p, start, end),
                )
            )
        docs.append(
            Document(id=f"doc{d}", title=f"D{d}", paragraphs=[Paragraph.from_text(t) for t in paras])
        )
    return CorpusStore(docs), qa


class TestTrainEncoder:
    def test_loss_drops_by_half_on_synthetic_set(self):
        corpus, qa = synthetic_training_setup()
        cfg = EncoderConfig(dim=64, boundary_dim=28, coherency_dim=4)
        encoder = ToyEncoder(cfg, seed=3, n_features=512)
        config = TrainingConfig(learning_rate=0.4, epochs=30, seed=0, max_span=4)
        history = train_encoder(corpus, qa, encoder, config)
        assert len(history) == config.epochs
        assert history[-1]["combined"] < 0.5 * history[0]["combined"]
        # Decreasing up to noise: the best-so-far loss keeps improving and no
        # epoch regresses far above it.
        best = history[0]["combined"]
        for rec in history[1:]:
            assert rec["combined"] < best + 0.15
            best = min(best, rec["combined"])

    def test_training_is_deterministic(self):
        corpus, qa = synthetic_training_setup(n_paras=10)
        cfg = EncoderConfig(dim=16, boundary_dim=6, coherency_dim=2)
        config = TrainingConfig(learning_rate=0.05, epochs=2, seed=4, max_span=4)
        enc_a = ToyEncoder(cfg, seed=3)
        enc_b = ToyEncoder(cfg, seed=3)
        hist_a = train_encoder(corpus, qa, enc_a, config)
        hist_b = train_encoder(corpus, qa, enc_b, config)
        assert hist_a == hist_b
        np.testing.assert_array_equal(enc_a.linear, enc_b.linear)

    def test_epochs_encode_no_paragraph_again(self, monkeypatch):
        # A paragraph's base encoding never changes, so the filter metrics of
        # every epoch take it from the bases training already holds.
        corpus, qa = synthetic_training_setup(n_paras=10)
        cfg = EncoderConfig(dim=16, boundary_dim=6, coherency_dim=2)
        config = TrainingConfig(learning_rate=0.05, epochs=2, seed=4, max_span=4)

        def must_not_encode(*args, **kwargs):
            raise AssertionError("a training epoch encoded a paragraph")

        monkeypatch.setattr(ToyEncoder, "encode_document", must_not_encode)
        history = train_encoder(corpus, qa, ToyEncoder(cfg, seed=3), config)
        assert len(history) == 2 and all("filter_start_recall" in rec for rec in history)


@pytest.mark.parametrize("setting, why", [
    ({"epochs": "ten"}, "epochs must be an integer, not 'ten'"),
    ({"epochs": 2.0}, "epochs must be an integer, not 2.0"),
    ({"epochs": True}, "epochs must be an integer, not True"),
    ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ({"max_span": 0}, "max_span must be >= 1, got 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"negatives_per_paragraph": -1}, "negatives_per_paragraph must be >= 0, got -1"),
    ({"negatives_per_paragraph": None}, "negatives_per_paragraph must be an integer, not None"),
    ({"learning_rate": 0.0}, "learning_rate must be a finite number > 0, not 0.0"),
    ({"learning_rate": -0.1}, "learning_rate must be a finite number > 0, not -0.1"),
    ({"learning_rate": float("nan")}, "learning_rate must be a finite number > 0, not nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be a finite number > 0, not inf"),
    ({"learning_rate": "0.1"}, "learning_rate must be a finite number > 0, not '0.1'"),
    ({"learning_rate": False}, "learning_rate must be a finite number > 0, not False"),
], ids=["epochs_string", "epochs_float", "epochs_bool", "epochs_0", "max_span_0", "seed_negative",
        "negatives_negative", "negatives_null", "lr_0", "lr_negative", "lr_nan", "lr_inf",
        "lr_string", "lr_bool"])
def test_training_config_refuses_a_bad_setting(setting, why):
    with pytest.raises(ValueError) as err:
        TrainingConfig(**setting)
    assert str(err.value) == why


def test_training_config_accepts_its_least_values():
    TrainingConfig(learning_rate=1, epochs=1, seed=0, max_span=1, negatives_per_paragraph=0)
