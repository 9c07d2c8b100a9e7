"""Feedback model estimation: normalization, interpolation, term extraction."""

import math

import numpy as np
import pytest

import twqp.relevance
from twqp.index import Document, build_index
from twqp.relevance import build_rm3
from twqp.retrieval import Query, retrieve_topk

from conftest import PLAIN, make_random_corpus, random_query
from oracle import score_ql


def _model_inputs(rng, n_docs=20):
    index = build_index(make_random_corpus(rng, n_docs), PLAIN)
    q = random_query(rng, index)
    initial = retrieve_topk(q, 1000, 800.0, index)
    return index, q, initial


class TestBuildRM3:
    def test_lambda_one_is_query_mle(self, fruit_index):
        q = Query("q1", ("apple", "apple", "banana"))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        rm = build_rm3(q, initial, 2, 10.0, 1.0, fruit_index)
        assert rm["apple"] == 2 / 3
        assert rm["banana"] == 1 / 3
        # feedback-only terms stay in the support at probability zero
        assert rm["cherry"] == 0.0

    def test_lambda_zero_is_pure_feedback(self, fruit_index):
        q = Query("q1", ("banana",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        rm = build_rm3(q, initial, 2, 10.0, 0.0, fruit_index)
        assert abs(sum(rm.values()) - 1.0) < 1e-12

    def test_single_feedback_doc_weight_is_one(self, fruit_index):
        q = Query("q1", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        rm = build_rm3(q, initial, 1, 10.0, 0.0, fruit_index)
        # only d1 contributes, so the model is d1's MLE: apple 2/3, banana 1/3
        assert abs(rm["apple"] - 2 / 3) < 1e-12
        assert abs(rm["banana"] - 1 / 3) < 1e-12

    def test_direct_summation_oracle(self, fruit_index):
        """Recompute the two-doc model with explicit arithmetic."""
        q = Query("q1", ("banana",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        lam = 0.4
        rm = build_rm3(q, initial, 2, 10.0, lam, fruit_index)

        s1 = score_ql(q, "d1", 10.0, fruit_index)
        s2 = score_ql(q, "d2", 10.0, fruit_index)
        top = max(s1, s2)
        z = math.exp(s1 - top) + math.exp(s2 - top)
        w1, w2 = math.exp(s1 - top) / z, math.exp(s2 - top) / z
        feedback = {
            "apple": w1 * (2 / 3),
            "banana": w1 * (1 / 3) + w2 * (1 / 2),
            "cherry": w2 * (1 / 2),
        }
        for w, fb in feedback.items():
            expected = lam * (1.0 if w == "banana" else 0.0) + (1 - lam) * fb
            assert abs(rm[w] - expected) < 1e-12

    def test_normalization_random(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            index, q, initial = _model_inputs(rng)
            if not initial.entries:
                continue
            m = int(rng.integers(1, len(initial.entries) + 1))
            lam = float(rng.uniform(0, 1))
            rm = build_rm3(q, initial, m, 800.0, lam, index)
            assert abs(sum(rm.values()) - 1.0) < 1e-9

    def test_lambda_linearity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            index, q, initial = _model_inputs(rng)
            if not initial.entries:
                continue
            m = min(5, len(initial.entries))
            pure_q = build_rm3(q, initial, m, 800.0, 1.0, index)
            pure_fb = build_rm3(q, initial, m, 800.0, 0.0, index)
            lam = float(rng.uniform(0, 1))
            mixed = build_rm3(q, initial, m, 800.0, lam, index)
            assert set(mixed) == set(pure_q) == set(pure_fb)
            for w in mixed:
                expected = lam * pure_q[w] + (1 - lam) * pure_fb[w]
                assert abs(mixed[w] - expected) < 1e-12

    def test_doc_weights_sum_to_one(self, fruit_index):
        # with lambda = 0 the total mass equals the total document weight
        q = Query("q1", ("banana",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        rm = build_rm3(q, initial, 2, 10.0, 0.0, fruit_index)
        assert abs(sum(rm.values()) - 1.0) < 1e-12

    def test_empty_list_rejected(self, fruit_index):
        from twqp.retrieval import RankedList

        empty = RankedList("q1", ())
        with pytest.raises(ValueError, match="empty"):
            build_rm3(Query("q1", ("apple",)), empty, 5, 10.0, 0.5, fruit_index)

    def test_bad_lambda_rejected(self, fruit_index):
        q = Query("q1", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError, match="lambda"):
                build_rm3(q, initial, 1, 10.0, lam, fruit_index)

    def test_zero_mu_rejected_before_scoring(self):
        # every feedback document lacks a query term, so at mu = 0 every
        # log score is -inf and the document weights' normalizer 0/0: the
        # model came out all NaN
        docs = [Document("d1", "a a x"), Document("d2", "a y"), Document("d3", "b z")]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("a", "b"))
        initial = retrieve_topk(q, 10, 100.0, index)
        with pytest.raises(ValueError, match="RM3 requires mu > 0 and finite, got 0.0"):
            build_rm3(q, initial, 2, 0.0, 0.5, index)
        rm = build_rm3(q, initial, 2, 1e-3, 0.5, index)
        assert not any(map(math.isnan, rm.values()))

    def test_m_below_one_rejected(self, fruit_index):
        q = Query("q1", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        with pytest.raises(ValueError, match="m"):
            build_rm3(q, initial, 0, 10.0, 0.5, fruit_index)

    def test_m_beyond_list_clamps_with_warning(self, fruit_index):
        q = Query("q1", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        with pytest.warns(UserWarning, match="clamping"):
            rm = build_rm3(q, initial, 99, 10.0, 0.5, fruit_index)
        at_length = build_rm3(q, initial, len(initial), 10.0, 0.5, fruit_index)
        assert list(rm.items()) == list(at_length.items())

    def test_feedback_mu_independent_of_list_mu(self, fruit_index):
        # document weights are recomputed at the model's own mu
        q = Query("q1", ("banana",))
        initial = retrieve_topk(q, 10, 500.0, fruit_index)
        rm_a = build_rm3(q, initial, 2, 10.0, 0.0, fruit_index)
        rm_b = build_rm3(q, initial, 2, 1000.0, 0.0, fruit_index)
        assert rm_a != rm_b

    def test_unindexed_query_term_rejected_before_scoring(self, monkeypatch):
        docs = [Document("d1", "a a x"), Document("d2", "a y"), Document("d3", "b z")]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("a", "zz"))
        lst = retrieve_topk(q, 1000, 100.0, index)  # every score -inf

        def unreachable(*args, **kwargs):
            raise AssertionError("scored before the query terms were checked")

        monkeypatch.setattr(twqp.relevance, "log_prob_matrix", unreachable)
        with pytest.raises(ValueError, match="RM3: query term 'zz' is in no document"):
            build_rm3(q, lst, 2, 100.0, 0.5, index)


class TestTermExtraction:
    """The clip n of build_rm3: the top n terms by probability, ties
    broken by name, in that order.  Over the fruit index with the query
    (banana,), the whole model at lambda 0.5 is banana 0.71, apple 0.16,
    cherry 0.13, and at lambda 1 banana 1 and the other two 0."""

    def _model(self, fruit_index, lam=0.5, n=None):
        q = Query("q1", ("banana",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        return build_rm3(q, initial, 2, 10.0, lam, fruit_index, n)

    def test_top_n_by_probability(self, fruit_index):
        assert list(self._model(fruit_index, n=1)) == ["banana"]
        assert list(self._model(fruit_index, n=2)) == ["banana", "apple"]

    def test_ties_break_lexicographically(self, fruit_index):
        clipped = self._model(fruit_index, lam=1.0, n=2)
        assert clipped == {"banana": 1.0, "apple": 0.0}
        assert list(clipped) == ["banana", "apple"]

    def test_n_beyond_support_returns_all(self, fruit_index):
        whole = self._model(fruit_index)
        assert list(self._model(fruit_index, n=99).items()) == list(
            whole.items()
        )
        assert len(whole) == 3

    def test_n_below_one_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            self._model(fruit_index, n=0)

    def test_restrict_keeps_raw_probabilities(self, fruit_index):
        whole = self._model(fruit_index)
        clipped = self._model(fruit_index, n=2)
        assert clipped == {w: whole[w] for w in ("banana", "apple")}
        assert sum(clipped.values()) < 1.0
