"""Batched steps equal their one-at-a-time references bit for bit.

weighted_sum takes a terms x batch weight table and gives one sum per
column; WIG scores a batch of lists in one pass, and predict_batch scores
a batch with any predictor.  Each must give the floats the one-column or
one-list computation gives.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.qpp import (
    PredictorKind,
    PredictorSpec,
    predict_batch,
    predict_score_ratio,
    predict_wig,
    wig_batch,
)
from twqp.retrieval import LogProbMemo, Query, expand_query, retrieve_topk, weighted_sum

from conftest import POSITIVE_MUS, UNINDEXED, corpora
from oracle import scalar_nqc, scalar_weighted_sums, scalar_wig

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
LOG_PROBS = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-300]),
    st.floats(-700.0, 0.0, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
)


class TestWeightTable:
    @PROPERTY
    @given(data=st.data())
    def test_each_column_is_its_own_sum(self, data):
        terms = data.draw(st.integers(0, 6))
        batch = data.draw(st.integers(1, 4))
        docs = data.draw(st.integers(1, 5))
        table = data.draw(st.lists(st.lists(WEIGHTS, min_size=batch, max_size=batch),
                                   min_size=terms, max_size=terms))
        rows = data.draw(st.lists(st.lists(LOG_PROBS, min_size=docs, max_size=docs),
                                  min_size=terms, max_size=terms))
        got = weighted_sum(np.array(table).reshape(terms, batch),
                           np.array(rows).reshape(terms, docs))
        assert got.shape == (batch, docs)
        # == on floats would let -0.0 stand for 0.0; compare the bits
        expected = np.array(scalar_weighted_sums(table, rows) or [[0.0] * docs] * batch)
        assert got.tobytes() == expected.reshape(batch, docs).tobytes()

    @PROPERTY
    @given(data=st.data())
    def test_one_weight_per_row_is_a_one_column_table(self, data):
        terms = data.draw(st.integers(1, 6))
        weights = data.draw(st.lists(WEIGHTS, min_size=terms, max_size=terms))
        rows = np.array(data.draw(st.lists(st.lists(LOG_PROBS, min_size=3, max_size=3),
                                           min_size=terms, max_size=terms)))
        got = weighted_sum(weights, rows)
        assert got.tobytes() == weighted_sum(np.array(weights)[:, None], rows)[0].tobytes()


def _batch(data, index, mu, oov):
    """A base query of indexed terms (plus the unindexed term when oov)
    and its q+w expansions over indexed and, when oov, unindexed
    candidates, with their lists at a depth that may leave them shorter
    than a cutoff; and a cutoff m."""
    indexed = st.sampled_from(index.vocabulary)
    extra = st.sampled_from(index.vocabulary + ([UNINDEXED] if oov else []))
    base = data.draw(st.lists(indexed, min_size=1, max_size=3))
    if oov and data.draw(st.booleans()):
        base.append(UNINDEXED)
    q = Query("q", tuple(base))
    candidates = data.draw(st.lists(extra, min_size=1, max_size=8))
    queries = [q] + [expand_query(q, w) for w in candidates]
    k = data.draw(st.integers(1, index.doc_count + 1))
    memo = LogProbMemo(mu, index)
    lists = [retrieve_topk(e, k, mu, index, memo) for e in queries]
    return lists, queries, data.draw(st.integers(1, index.doc_count + 2)), memo


class TestPredictorBatches:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_wig_equals_the_one_list_loop(self, index, mu, data):
        lists, queries, m, memo = _batch(data, index, mu, oov=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = wig_batch(lists, queries, m, memo)
        # the out-of-vocabulary warning is given once per list that holds it
        assert len(caught) == sum(UNINDEXED in q.terms for q in queries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert got == [scalar_wig(lst, q, m, mu, index) for lst, q in zip(lists, queries)]
            assert got == [predict_wig(lst, q, m, memo) for lst, q in zip(lists, queries)]

    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_predict_batch_dispatches_per_kind(self, index, mu, data):
        lists, queries, m, memo = _batch(data, index, mu, oov=False)
        assert predict_batch(PredictorSpec(PredictorKind.SCORE_RATIO), lists, queries, memo) == [
            predict_score_ratio(lst) for lst in lists
        ]
        assert predict_batch(PredictorSpec(PredictorKind.WIG, m), lists, queries, memo) == [
            predict_wig(lst, q, m, memo) for lst, q in zip(lists, queries)
        ]
        nqc = PredictorSpec(PredictorKind.NQC, m)
        try:
            expected = [scalar_nqc(lst, q, m, index) for lst, q in zip(lists, queries)]
        except ZeroDivisionError:  # a one-term corpus: log p_D = 0
            with pytest.raises(ValueError, match="degenerate"):
                predict_batch(nqc, lists, queries, memo)
            return
        assert predict_batch(nqc, lists, queries, memo) == expected

    def test_an_empty_batch_scores_nothing(self, fruit_index):
        assert wig_batch([], [], 5, LogProbMemo(10.0, fruit_index)) == []
