"""Quality predictors: analytic zeros, hand values, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twqp.index import Document, build_index, collection_prob
from twqp.qpp import (
    NQC_DEFAULT_M,
    WIG_DEFAULT_M,
    PredictorKind,
    PredictorSpec,
    predict_nqc,
    predict_quality,
    predict_score_ratio,
    population_std,
    wig_batch,
)
from twqp.retrieval import LogProbMemo, Query, RankedList, retrieve_topk
from twqp.weighting import NWIG_DEFAULT_M, nwig_weights, sror_term

from conftest import PLAIN, make_random_corpus, random_query
from oracle import smoothed_prob


def _list(scores, query_id="q1"):
    return RankedList(query_id, tuple((f"d{i}", s) for i, s in enumerate(scores)))


def _sror(w, q, k, memo):
    """sror_term with q's depth-k base list, retrieved from the memo."""
    return sror_term(w, q, k, memo, retrieve_topk(q, k, memo.mu, memo.index, memo))


class TestPredictorSpec:
    def test_default_cutoffs(self):
        assert PredictorSpec(PredictorKind.WIG).effective_m == WIG_DEFAULT_M == 5
        assert PredictorSpec(PredictorKind.NQC).effective_m == NQC_DEFAULT_M == 150
        assert PredictorSpec(PredictorKind.WIG, m=20).effective_m == 20
        assert NWIG_DEFAULT_M == 50


class TestWIG:
    def test_zero_when_document_equals_collection(self):
        # a single-document collection IS its own collection model; with
        # p_D = 1/2 every smoothing step is exact in binary
        index = build_index([Document("d1", "apple banana")], PLAIN)
        q = Query("q1", ("apple", "banana"))
        lst = retrieve_topk(q, 10, 100.0, index)
        assert wig_batch([lst], [q], 5, LogProbMemo(100.0, index))[0] == 0.0

    def test_zero_on_identical_copies(self):
        docs = [Document(f"d{i}", "apple banana") for i in range(4)]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("apple",))
        lst = retrieve_topk(q, 10, 50.0, index)
        assert wig_batch([lst], [q], 4, LogProbMemo(50.0, index))[0] == 0.0

    def test_direct_double_sum_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            index = build_index(make_random_corpus(rng, 20), PLAIN)
            q = random_query(rng, index)
            mu = float(rng.uniform(10, 2000))
            lst = retrieve_topk(q, 1000, mu, index)
            if not lst.entries:
                continue
            m = min(int(rng.integers(1, 8)), len(lst.entries))
            total = 0.0
            for doc_id, _ in lst.entries[:m]:
                for w in q.terms:
                    total += math.log(
                        smoothed_prob(w, doc_id, mu, index) / collection_prob(w, index)
                    )
            expected = total / (m * math.sqrt(len(q.terms)))
            assert abs(wig_batch([lst], [q], m, LogProbMemo(mu, index))[0] - expected) < 1e-9

    def test_oov_terms_skipped_but_counted_in_size(self, fruit_index):
        q = Query("q1", ("apple", "zzz"))
        lst = retrieve_topk(q, 10, 10.0, fruit_index)
        with pytest.warns(UserWarning, match="out of vocabulary"):
            got = wig_batch([lst], [q], 5, LogProbMemo(10.0, fruit_index))[0]
        contrib = math.log(
            smoothed_prob("apple", "d1", 10.0, fruit_index)
            / collection_prob("apple", fruit_index)
        )
        assert abs(got - contrib / (1 * math.sqrt(2))) < 1e-12

    def test_m_clamped_to_list_length(self, fruit_index):
        q = Query("q1", ("banana",))
        lst = retrieve_topk(q, 10, 10.0, fruit_index)
        memo = LogProbMemo(10.0, fruit_index)
        assert wig_batch([lst], [q], 500, memo) == wig_batch([lst], [q], len(lst.entries), memo)

    def test_empty_list_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="empty"):
            wig_batch([_list([])], [Query("q1", ("apple",))], 5, LogProbMemo(10.0, fruit_index))

    def test_shift_of_all_tfs_changes_value(self, fruit_index):
        # sanity: WIG is not constant across queries
        qa = Query("q1", ("apple",))
        qb = Query("q1", ("cherry",))
        la = retrieve_topk(qa, 10, 10.0, fruit_index)
        lb = retrieve_topk(qb, 10, 10.0, fruit_index)
        memo = LogProbMemo(10.0, fruit_index)
        assert wig_batch([la], [qa], 5, memo) != wig_batch([lb], [qb], 5, memo)


class TestNQC:
    def test_zero_on_constant_scores(self, fruit_index):
        lst = _list([-2.0, -2.0, -2.0, -2.0])
        assert predict_nqc(lst, Query("q1", ("apple",)), 4, fruit_index) == 0.0

    def test_zero_on_single_entry(self, fruit_index):
        lst = _list([-3.5])
        assert predict_nqc(lst, Query("q1", ("apple",)), 5, fruit_index) == 0.0

    def test_hand_value(self, fruit_index):
        # population sigma of {-1,-2,-3} is sqrt(2/3); the denominator is
        # |log p_D(cherry)| = |log(1/5)|
        lst = _list([-1.0, -2.0, -3.0])
        q = Query("q1", ("cherry",))
        expected = math.sqrt(2.0 / 3.0) / abs(math.log(1 / 5))
        assert abs(predict_nqc(lst, q, 3, fruit_index) - expected) < 1e-12

    def test_duplicate_terms_scale_denominator(self, fruit_index):
        lst = _list([-1.0, -2.0, -3.0])
        single = predict_nqc(lst, Query("q1", ("cherry",)), 3, fruit_index)
        double = predict_nqc(lst, Query("q1", ("cherry", "cherry")), 3, fruit_index)
        assert abs(double - single / 2) < 1e-12

    def test_shift_invariance(self, fruit_index):
        rng = np.random.default_rng(67)
        q = Query("q1", ("banana",))
        for _ in range(10):
            scores = sorted(rng.uniform(-20, -1, size=6), reverse=True)
            shifted = [s + 3.25 for s in scores]
            a = predict_nqc(_list(scores), q, 6, fruit_index)
            b = predict_nqc(_list(shifted), q, 6, fruit_index)
            assert abs(a - b) < 1e-9

    # Lengths drawn evenly over 1-300, so that most arrays are long enough
    # for np.add.reduce's pairwise sum to differ from a running sum.
    @settings(deadline=None)
    @given(
        st.integers(1, 300).flatmap(
            lambda n: st.lists(
                st.one_of(
                    st.floats(-1e3, 1e3),
                    st.floats(-1e-6, 1e-6),
                    st.floats(-1e12, -1e6),
                    st.sampled_from([-7.25, 0.0, 1e-300, -123456.789]),
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_sigma_is_np_std_bit_for_bit(self, values):
        x = np.array(values)
        assert population_std(x) == float(np.std(x))

    def test_oov_term_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="out of vocabulary"):
            predict_nqc(_list([-1.0, -2.0]), Query("q1", ("zzz",)), 2, fruit_index)

    def test_empty_list_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="empty"):
            predict_nqc(_list([]), Query("q1", ("apple",)), 5, fruit_index)


class TestScoreRatio:
    def test_exp_of_gap(self):
        # scores -1 and -4: ratio e^3
        assert abs(predict_score_ratio(_list([-1.0, -2.0, -4.0])) - 20.085536923187668) < 1e-9

    def test_single_entry_is_one(self):
        assert predict_score_ratio(_list([-7.0])) == 1.0

    def test_equal_scores_give_one(self):
        assert predict_score_ratio(_list([-2.0, -2.0, -2.0])) == 1.0

    def test_huge_gap_is_inf(self):
        assert predict_score_ratio(_list([0.0, -800.0])) == math.inf

    def test_at_least_one_on_sorted_lists(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            scores = sorted(rng.uniform(-50, 0, size=5), reverse=True)
            assert predict_score_ratio(_list(scores)) >= 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            predict_score_ratio(_list([]))

    def test_top_score_of_minus_inf_rejected(self):
        # the gap -inf - -inf would be NaN
        for scores in ([-math.inf], [-math.inf, -math.inf]):
            with pytest.raises(ValueError, match="top score is -inf"):
                predict_score_ratio(_list(scores))
        assert predict_score_ratio(_list([-1.0, -math.inf])) == math.inf


class TestPredictQuality:
    def test_dispatch_matches_direct_calls(self, fruit_index):
        q = Query("q1", ("banana",))
        lst = retrieve_topk(q, 10, 10.0, fruit_index)
        memo = LogProbMemo(10.0, fruit_index)
        assert predict_quality(
            PredictorSpec(PredictorKind.WIG), lst, q, memo
        ) == wig_batch([lst], [q], WIG_DEFAULT_M, memo)[0]
        assert predict_quality(
            PredictorSpec(PredictorKind.NQC), lst, q, memo
        ) == predict_nqc(lst, q, NQC_DEFAULT_M, fruit_index)
        assert predict_quality(
            PredictorSpec(PredictorKind.SCORE_RATIO), lst, q, memo
        ) == predict_score_ratio(lst)


class TestNWIG:
    def test_direct_evaluation_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            index = build_index(make_random_corpus(rng, 25), PLAIN)
            q = random_query(rng, index)
            mu = float(rng.uniform(10, 2000))
            lst = retrieve_topk(q, 1000, mu, index)
            if not lst.entries:
                continue
            w = index.vocabulary[int(rng.integers(0, len(index.vocabulary)))]
            m = min(int(rng.integers(1, 10)), len(lst.entries))
            log_pd = math.log(collection_prob(w, index))
            mean_log = sum(
                math.log(smoothed_prob(w, d, mu, index)) for d, _ in lst.entries[:m]
            ) / m
            expected = (mean_log - log_pd) / (-log_pd)
            assert abs(nwig_weights([w], lst, m, LogProbMemo(mu, index))[w] - expected) < 1e-9

    def test_oov_term_gets_zero_with_warning(self, fruit_index):
        lst = retrieve_topk(Query("q1", ("apple",)), 10, 10.0, fruit_index)
        with pytest.warns(UserWarning, match="out of vocabulary"):
            assert nwig_weights(["zzz"], lst, 5, LogProbMemo(10.0, fruit_index))["zzz"] == 0.0

    def test_certain_term_gets_zero_with_warning(self):
        index = build_index([Document("d1", "apple apple")], PLAIN)
        lst = retrieve_topk(Query("q1", ("apple",)), 10, 10.0, index)
        with pytest.warns(UserWarning, match="probability 1"):
            assert nwig_weights(["apple"], lst, 5, LogProbMemo(10.0, index))["apple"] == 0.0

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            index = build_index(make_random_corpus(rng, 15), PLAIN)
            q = random_query(rng, index)
            lst = retrieve_topk(q, 1000, 500.0, index)
            if not lst.entries:
                continue
            w = index.vocabulary[int(rng.integers(0, len(index.vocabulary)))]
            assert nwig_weights([w], lst, 5, LogProbMemo(500.0, index))[w] <= 1.0 + 1e-12

    def test_empty_list_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="empty"):
            nwig_weights(["apple"], _list([]), 5, LogProbMemo(10.0, fruit_index))


class TestSROR:
    def _ab_index(self):
        docs = [
            Document("a1", "alpha alpha alpha alpha alpha"),
            Document("a2", "alpha alpha alpha alpha alpha"),
            Document("b1", "beta beta beta beta beta"),
            Document("b2", "beta beta beta beta beta"),
        ]
        return build_index(docs, PLAIN)

    def test_non_query_term_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="not a query term"):
            _sror("cherry", Query("q1", ("apple",)), 10, LogProbMemo(10.0, fruit_index))

    def test_single_term_query_gets_one(self, fruit_index):
        memo = LogProbMemo(10.0, fruit_index)
        assert _sror("apple", Query("q1", ("apple",)), 10, memo) == 1.0

    def test_duplicate_removal_keeps_list_identical(self, fruit_index):
        # dropping one of two occurrences leaves the same match set, and at
        # this depth the same documents, so the overlap is total
        q = Query("q1", ("banana", "banana"))
        assert _sror("banana", q, 10, LogProbMemo(10.0, fruit_index)) == 0.0

    def test_disjoint_lists_give_one(self):
        index = self._ab_index()
        q = Query("q1", ("alpha", "beta"))
        # k=2 keeps only the alpha docs for q (tie on score, id order), and
        # only the beta docs once alpha is removed
        assert _sror("alpha", q, 2, LogProbMemo(100.0, index)) == 1.0

    def test_half_overlap(self):
        index = self._ab_index()
        q = Query("q1", ("alpha", "beta"))
        # depth 4: base holds all four docs, the reduced query only matches
        # the two beta docs -> overlap 2 of 4
        assert _sror("alpha", q, 4, LogProbMemo(100.0, index)) == 0.5

    def test_empty_base_list_warns_zero(self, fruit_index):
        q = Query("q1", ("apple", "banana"))
        empty = RankedList("q1", ())
        with pytest.warns(UserWarning, match="empty base"):
            memo = LogProbMemo(10.0, fruit_index)
            assert sror_term("apple", q, 10, memo, empty) == 0.0
