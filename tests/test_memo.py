"""The per-call log-probability memo against the kernel it stands in for.

weigh_queries scores every list of a call from one LogProbMemo: a term's
full-width row is built once and every later score gathers columns from it.
Each check here compares with == (or byte equality), never approximately.
"""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twqp.experiment
import twqp.qpp
import twqp.retrieval
from twqp.config import ExperimentConfig
from twqp.experiment import expand_and_weigh, make_queries
from twqp.index import Document, build_index
from twqp.qpp import PredictorKind, PredictorSpec, predict_quality, predict_wig
from twqp.retrieval import LogProbMemo, Query, log_prob_matrix, retrieve_topk, smoothed_prob
from twqp.synthetic import make_synthetic
from twqp.weighting import WeightingMethod, WeightingParams, delta_p, twqp_weight, weigh_queries

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# d2 is empty: a full-width row covers it although no candidate set does.
WITH_EMPTY_DOC = build_index(
    [
        Document("d1", "a b a"),
        Document("d2", ""),
        Document("d3", "b c c"),
        Document("d4", "c d e e e e"),
    ],
    PLAIN,
)
INDEXES = st.one_of(corpora(), st.just(WITH_EMPTY_DOC))
TERMS = st.sampled_from(VOCAB + (UNINDEXED,))
TWQP_KINDS = {
    WeightingMethod.TWQP_WIG: PredictorKind.WIG,
    WeightingMethod.TWQP_NQC: PredictorKind.NQC,
    WeightingMethod.TWQP_SCORE_RATIO: PredictorKind.SCORE_RATIO,
}


def doc_numbers(data, index):
    """A subset of the document numbers, in any order, possibly empty."""
    nums = data.draw(st.lists(st.integers(0, index.doc_count - 1), unique=True, max_size=12))
    return np.array(nums, dtype=np.int64)


def scalar_wig(lst, q, m, mu, index):
    """The one-document WIG loop: smoothed_prob and math.log per cell."""
    m = min(m, len(lst.entries))
    log_pd = {}
    for w in set(q.terms):
        p = index.collection_tf.get(w, 0) / index.total_tokens
        if p != 0.0:
            log_pd[w] = math.log(p)
    total = 0.0
    for doc_id, _ in lst.entries[:m]:
        for w in q.terms:
            if w in log_pd:
                total += math.log(smoothed_prob(w, doc_id, mu, index)) - log_pd[w]
    return total / (m * math.sqrt(len(q.terms)))


class TestGather:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_equals_log_prob_matrix_bit_for_bit(self, index, mu, data):
        memo = LogProbMemo(mu, index)
        for _ in range(data.draw(st.integers(1, 4))):  # later gathers reuse rows
            terms = data.draw(st.lists(TERMS, min_size=1, max_size=4))
            nums = doc_numbers(data, index)
            got = memo.matrix(terms, nums, mu, index)
            expected = log_prob_matrix(terms, nums, mu, index)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_unindexed_row_is_minus_inf(self):
        memo = LogProbMemo(10.0, WITH_EMPTY_DOC)
        nums = np.arange(WITH_EMPTY_DOC.doc_count)
        got = memo.matrix([UNINDEXED, "a", UNINDEXED], nums, 10.0, WITH_EMPTY_DOC)
        assert (got[[0, 2]] == -math.inf).all()
        assert np.isfinite(got[1]).all()

    def test_no_terms_gives_an_empty_matrix(self, fruit_index):
        got = LogProbMemo(10.0, fruit_index).matrix([], np.array([1, 0]), 10.0, fruit_index)
        assert got.shape == (0, 2)


class TestRetrieveWithMemo:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_same_list_as_without(self, index, mu, data):
        memo = LogProbMemo(mu, index)
        for _ in range(data.draw(st.integers(1, 4))):
            q = Query("q", tuple(data.draw(st.lists(TERMS, min_size=1, max_size=4))))
            k = data.draw(st.integers(1, index.doc_count + 1))
            assert retrieve_topk(q, k, mu, index, memo) == retrieve_topk(q, k, mu, index)

    def test_memo_at_another_mu_rejected(self, fruit_index):
        memo = LogProbMemo(10.0, fruit_index)
        with pytest.raises(ValueError, match="memo holds log probabilities at mu=10.0"):
            retrieve_topk(Query("q", ("apple",)), 10, 20.0, fruit_index, memo)

    def test_memo_over_another_index_rejected(self, fruit_index):
        memo = LogProbMemo(10.0, WITH_EMPTY_DOC)
        with pytest.raises(ValueError, match="memo holds"):
            memo.matrix(["apple"], np.array([0]), 10.0, fruit_index)

    @pytest.mark.parametrize("mu", [0, 0.0, -1.0])
    def test_non_positive_mu_rejected(self, fruit_index, mu):
        with pytest.raises(ValueError, match="requires mu > 0"):
            LogProbMemo(mu, fruit_index)


class TestWig:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_equals_the_scalar_loop(self, index, mu, data):
        q = Query("q", tuple(data.draw(st.lists(TERMS, min_size=1, max_size=4))))
        lst = retrieve_topk(q, 1000, mu, index)
        if not lst.entries:
            return
        m = data.draw(st.integers(1, len(lst.entries) + 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = scalar_wig(lst, q, m, mu, index)
            assert predict_wig(lst, q, m, mu, index) == expected
            assert predict_wig(lst, q, m, mu, index, LogProbMemo(mu, index)) == expected

    def test_mu_zero_absent_term_gives_minus_inf(self, fruit_index):
        # d2 lacks "apple"; the one-document loop raised a math domain error
        q = Query("q", ("apple", "banana"))
        lst = retrieve_topk(q, 10, 0.0, fruit_index)
        assert predict_wig(lst, q, 5, 0.0, fruit_index) == -math.inf

    def test_adds_in_bag_order(self):
        # here adding the terms in sorted order gives another float
        index = build_index(
            [Document("d1", "a b a c"), Document("d2", "b c d d e"), Document("d3", "e a d")],
            PLAIN,
        )
        q = Query("q", ("d", "b", "b", "a"))
        lst = retrieve_topk(q, 10, 1.0, index)
        expected = scalar_wig(lst, q, 1, 1.0, index)
        assert scalar_wig(lst, Query("q", tuple(sorted(q.terms))), 1, 1.0, index) != expected
        assert predict_wig(lst, q, 1, 1.0, index) == expected
        assert predict_wig(lst, q, 1, 1.0, index, LogProbMemo(1.0, index)) == expected


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestWeighQueriesWithMemo:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_twqp_tables_equal_delta_p_without_memo(self, index, mu, data):
        k = data.draw(st.integers(1, index.doc_count + 1))
        predictor_m = data.draw(st.one_of(st.none(), st.integers(1, index.doc_count + 2)))
        indexed = st.sampled_from(index.vocabulary)
        q = Query("q", tuple(data.draw(st.lists(indexed, min_size=1, max_size=4))))
        vocabulary = data.draw(st.lists(indexed, min_size=1, max_size=6))
        params = WeightingParams(mu=mu, k=k, predictor_m=predictor_m)
        base = retrieve_topk(q, k, mu, index)
        for method, kind in TWQP_KINDS.items():
            spec = PredictorSpec(kind, predictor_m)
            try:
                table = weigh_queries([(q, vocabulary)], (method,), params, index)[0][method]
            except ValueError as exc:  # e.g. NQC on a one-term corpus
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    predict_quality(spec, base, q, mu, index)
                continue
            base_quality = predict_quality(spec, base, q, mu, index)
            expected = {
                w: twqp_weight(delta_p(w, q, base, spec, k, mu, index, base_quality))
                for w in dict.fromkeys(vocabulary)
            }
            assert list(table.weights.items()) == list(expected.items())


class TestLogWorkCounts:
    """Which terms reach log_prob_matrix while one weigh_queries call runs."""

    def test_each_term_logged_at_most_once_per_call(self, monkeypatch):
        coll = make_synthetic(32)
        config = ExperimentConfig()
        index = build_index(coll.documents, config.analyzer)
        queries, _ = make_queries(coll.topics, index)
        mu = 1000.0
        lists = [(q, retrieve_topk(q, config.k, mu, index)) for q in queries]

        logged = Counter()
        weighing = []

        def counted(terms, *args, **kwargs):
            if weighing:
                logged.update(terms)
            return real(terms, *args, **kwargs)

        real = twqp.retrieval.log_prob_matrix
        for module in (twqp.retrieval, twqp.qpp):
            monkeypatch.setattr(module, "log_prob_matrix", counted)
        real_weigh = twqp.experiment.weigh_queries

        def weigh(*args, **kwargs):
            weighing.append(True)
            try:
                return real_weigh(*args, **kwargs)
            finally:
                weighing.clear()

        monkeypatch.setattr(twqp.experiment, "weigh_queries", weigh)
        methods = tuple(WeightingMethod)
        expand_and_weigh(lists, 10, methods, mu, config, index)
        assert max(logged.values()) == 1
        assert set().union(*(q.terms for q, _ in lists)) <= set(logged)
