"""The vectorised scoring kernel against the scalar reference, bit for bit.

retrieve_topk and the re-rankers score through log_prob_matrix and
weighted_sum; smoothed_prob and score_ql stay the one-document reference.
Every comparison here is ==, never approximate.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.index import Document, Index, build_index
from twqp.rerank import RerankConfig, rerank_twqp
from twqp.retrieval import (
    Query,
    RankedList,
    log_prob_matrix,
    retrieve_topk,
    score_ql,
    smoothed_prob,
)
from twqp.weighting import TermWeightTable

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora

MUS = st.one_of(
    st.sampled_from([0, 0.0, 1, 10, 100.0, 1000, 2500.0]),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


def queries():
    terms = st.sampled_from(VOCAB + (UNINDEXED,))
    return st.lists(terms, min_size=1, max_size=5).map(lambda t: Query("q", tuple(t)))


def scalar_topk(q, k, mu, index):
    scored = [(d, score_ql(q, d, mu, index)) for d in index.matching_docs(q.terms)]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return tuple(scored[:k])


def scalar_rescore(doc_id, weights, mu, index):
    score = 0.0
    for w in sorted(weights):
        if weights[w] != 0.0:
            score += weights[w] * math.log(smoothed_prob(w, doc_id, mu, index))
    return score


PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestRetrievalProperty:
    @PROPERTY
    @given(index=corpora(), q=queries(), mu=MUS, data=st.data())
    def test_topk_equals_scalar_reference(self, index, q, mu, data):
        n_candidates = len(index.matching_docs(q.terms))
        k = data.draw(st.integers(1, n_candidates + 1))
        got = retrieve_topk(q, k, mu, index).entries
        assert got == scalar_topk(q, k, mu, index)
        assert all(type(d) is str and type(s) is float for d, s in got)


class TestRerankProperty:
    @PROPERTY
    @given(index=corpora(), q=queries(), mu=POSITIVE_MUS, data=st.data())
    def test_head_scores_equal_scalar_reference(self, index, q, mu, data):
        initial = retrieve_topk(q, 1000, mu, index)
        if not initial.entries:
            return
        weights = data.draw(
            st.dictionaries(
                st.sampled_from(VOCAB),
                st.one_of(
                    st.just(0.0),
                    st.integers(1, 4),
                    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                ),
            )
        )
        depth = data.draw(st.integers(1, len(initial.entries)))
        cfg = RerankConfig(mu=mu, rerank_depth=depth, k=1000)
        head, tail = initial.entries[:depth], initial.entries[depth:]
        if any(w not in index.postings for w, v in weights.items() if v != 0.0):
            with pytest.raises(ValueError, match="zero smoothed probability"):
                rerank_twqp(initial, _table(weights), cfg, index)
            return
        got = rerank_twqp(initial, _table(weights), cfg, index).entries
        expected = sorted(
            ((d, scalar_rescore(d, weights, mu, index)) for d, _ in head),
            key=lambda e: (-e[1], e[0]),
        )
        assert got == tuple(expected) + tail


def _table(weights):
    return TermWeightTable("q", None, weights)


class TestLogChoice:
    # p = 0.0027936962750716335: math.log gives -5.8803897301867165, while
    # np.log gives -5.880389730186717 on some builds.  The kernel must give
    # the math.log value, for a document holding the term and for one
    # lacking it.
    P = 0.0027936962750716335
    MATH_LOG = -5.8803897301867165

    def test_document_holding_the_term(self):
        # d1 holds "a" once in 57 tokens; 420 tokens in all; mu = 2037.
        docs = [Document("d1", "a " + "b " * 56), Document("d2", "b " * 363)]
        index = build_index(docs, PLAIN)
        assert smoothed_prob("a", "d1", 2037, index) == self.P
        entries = retrieve_topk(Query("q", ("a",)), 10, 2037, index).entries
        assert entries == (("d1", self.MATH_LOG),)
        assert entries[0][1] != -5.880389730186717

    def test_document_lacking_the_term(self):
        # d2 lacks "a": p = mu * (1/2) / (1 + mu).
        mu = 0.005618786918311483
        index = build_index([Document("d1", "a"), Document("d2", "b")], PLAIN)
        assert smoothed_prob("a", "d2", mu, index) == self.P
        initial = RankedList("q", (("d2", 0.0),), 1)
        out = rerank_twqp(initial, _table({"a": 1.0}), RerankConfig(mu, 1, 1), index)
        assert out.entries == (("d2", self.MATH_LOG),)


class TestKernelEdges:
    def test_view_is_built_on_first_scoring_call(self, fruit_index, tmp_path):
        assert fruit_index._columns is None
        fruit_index.save(tmp_path / "ix")
        loaded = Index.load(tmp_path / "ix")
        assert loaded._columns is None
        retrieve_topk(Query("q", ("apple",)), 10, 10.0, loaded)
        assert loaded.columns.doc_ids == ["d1", "d2"]

    def test_matrix_rows_follow_terms(self, fruit_index):
        nums = fruit_index.columns.doc_numbers(["d2", "d1"])
        got = log_prob_matrix(["cherry", "apple"], nums, 5.0, fruit_index)
        expected = [
            [math.log(smoothed_prob(w, d, 5.0, fruit_index)) for d in ("d2", "d1")]
            for w in ("cherry", "apple")
        ]
        assert got.tolist() == expected

    def test_negative_mu_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            retrieve_topk(Query("q", ("apple",)), 10, -1.0, fruit_index)

    def test_empty_doc_with_mu_zero_rejected(self):
        index = build_index([Document("d1", "a"), Document("d2", "")], PLAIN)
        nums = index.columns.doc_numbers(["d1", "d2"])
        with pytest.raises(ValueError, match="'d2' is empty and mu=0"):
            log_prob_matrix(["a"], nums, 0, index)

    def test_unknown_head_doc_rejected(self, fruit_index):
        initial = RankedList("q", (("nope", 0.0),), 1)
        with pytest.raises(KeyError, match="unknown doc_id 'nope'"):
            rerank_twqp(initial, _table({"apple": 1.0}), RerankConfig(5.0, 1, 1), fruit_index)
