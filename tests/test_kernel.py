"""The scoring kernel against the one-document oracle, bit for bit.

retrieve_topk scores through log_prob_matrix and weighted_sum, and the
re-rankers through a LogProbMemo, whose rows are log_prob_matrix's;
tests/oracle.py holds the one-document reference they are compared with.  The kernel's own edge cases (hand fractions, the mu = 0
MLE, -inf for an unindexed term, the mu and empty-document checks) are
pinned here on log_prob_matrix itself.  Every comparison here is ==, never
approximate.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.config import ExperimentConfig
from twqp.index import Document, Index, build_index
from twqp.rerank import rerank_twqp
from twqp.retrieval import (
    LogProbMemo,
    Query,
    RankedList,
    log_prob_matrix,
    rank_grid,
    retrieve_topk,
)

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import scalar_rescore, scalar_topk, smoothed_prob

MUS = st.one_of(
    st.sampled_from([0, 0.0, 1, 10, 100.0, 1000, 2500.0]),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


def queries():
    terms = st.sampled_from(VOCAB + (UNINDEXED,))
    return st.lists(terms, min_size=1, max_size=5).map(lambda t: Query("q", tuple(t)))


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
        config = ExperimentConfig(rerank_depth=depth)
        head, tail = initial.entries[:depth], initial.entries[depth:]
        if any(w not in index.postings for w, v in weights.items() if v != 0.0):
            with pytest.raises(ValueError, match="zero smoothed probability"):
                rerank_twqp(initial, weights, mu, config, index)
            return
        got = rerank_twqp(initial, weights, mu, config, index).entries
        expected = sorted(
            ((d, scalar_rescore(d, weights, mu, index)) for d, _ in head),
            key=lambda e: (-e[1], e[0]),
        )
        assert got == tuple(expected) + tail


class TestSnapshotProperty:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(index=corpora(), q=queries(), mu=POSITIVE_MUS)
    def test_loaded_index_equals_built(self, index, q, mu):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.snap"
            index.save(path)
            loaded = Index.load(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.collection_tf == index.collection_tf
        assert retrieve_topk(q, 1000, mu, loaded) == retrieve_topk(q, 1000, mu, index)


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

    def test_grid_and_memo_in_a_document_holding_the_term(self):
        docs = [Document("d1", "a " + "b " * 56), Document("d2", "b " * 363)]
        index = build_index(docs, PLAIN)
        nums, scores = rank_grid(Query("q", ("a",)), 10, [100, 2037], index)
        assert (nums[1].tolist(), scores[1].tolist()) == ([0], [self.MATH_LOG])
        assert LogProbMemo(2037, index).matrix(["a"], np.array([0]))[0, 0] == self.MATH_LOG

    def test_memo_in_a_document_lacking_the_term(self):
        mu = 0.005618786918311483
        index = build_index([Document("d1", "a"), Document("d2", "b")], PLAIN)
        assert LogProbMemo(mu, index).matrix(["a"], np.array([1]))[0, 0] == self.MATH_LOG

    def test_document_lacking_the_term(self):
        # d2 lacks "a": p = mu * (1/2) / (1 + mu).
        mu = 0.005618786918311483
        index = build_index([Document("d1", "a"), Document("d2", "b")], PLAIN)
        assert smoothed_prob("a", "d2", mu, index) == self.P
        initial = RankedList("q", (("d2", 0.0),))
        config = ExperimentConfig(k=1, rerank_depth=1)
        out = rerank_twqp(initial, {"a": 1.0}, mu, config, index)
        assert out.entries == (("d2", self.MATH_LOG),)


class TestKernelEdges:
    def test_matrix_rows_follow_terms(self, fruit_index):
        nums = fruit_index.doc_numbers(["d2", "d1"])
        got = log_prob_matrix(["cherry", "apple"], nums, 5.0, fruit_index)
        expected = [
            [math.log(smoothed_prob(w, d, 5.0, fruit_index)) for d in ("d2", "d1")]
            for w in ("cherry", "apple")
        ]
        assert got.tolist() == expected

    # d1 = apple x2 + banana, d2 = banana + cherry; collection apple 2/5,
    # banana 2/5, cherry 1/5.  At mu = 0 a cell is the document MLE.
    @pytest.mark.parametrize(
        "w, doc_id, mu, p",
        [
            ("apple", "d1", 10.0, (2 + 10 * 0.4) / 13),
            ("cherry", "d1", 10.0, (0 + 10 * 0.2) / 13),
            ("apple", "d2", 10.0, (0 + 10 * 0.4) / 12),
            ("apple", "d1", 0.0, 2 / 3),
            ("cherry", "d1", 0.0, 0.0),
            ("durian", "d1", 10.0, 0.0),
        ],
        ids=["fraction", "background-only", "other-length", "mle", "mle-absent", "unindexed"],
    )
    def test_cell_is_the_log_of_the_hand_fraction(self, fruit_index, w, doc_id, mu, p):
        nums = fruit_index.doc_numbers([doc_id])
        expected = math.log(p) if p else -math.inf
        assert log_prob_matrix([w], nums, mu, fruit_index).tolist() == [[expected]]

    def test_documents_past_a_terms_last_posting(self):
        # "a" is held by d1 only, so d2 and d3 come after its last posting
        # and get the background-only cell: 1 "a" among 6 tokens.
        index = build_index(
            [Document("d1", "a b"), Document("d2", "b"), Document("d3", "b b c")], PLAIN
        )
        nums = index.doc_numbers(["d3", "d1", "d2"])
        got = log_prob_matrix(["a"], nums, 4.0, index)
        assert got.tolist() == [
            [math.log((0 + 4.0 * (1 / 6)) / 7), math.log((1 + 4.0 * (1 / 6)) / 6),
             math.log((0 + 4.0 * (1 / 6)) / 5)]
        ]

    def test_unindexed_term_between_indexed_terms(self, fruit_index):
        nums = fruit_index.doc_numbers(["d1", "d2"])
        got = log_prob_matrix(["apple", "durian", "cherry"], nums, 5.0, fruit_index)
        assert got.tolist() == [
            [math.log(smoothed_prob(w, d, 5.0, fruit_index)) for d in ("d1", "d2")]
            if w != "durian"
            else [-math.inf, -math.inf]
            for w in ("apple", "durian", "cherry")
        ]

    def test_negative_mu_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            retrieve_topk(Query("q", ("apple",)), 10, -1.0, fruit_index)
        nums = fruit_index.doc_numbers(["d1"])
        for mu in (-1.0, math.nan, math.inf):  # NaN fails every comparison
            with pytest.raises(ValueError, match="mu must be >= 0 and finite"):
                log_prob_matrix(["apple"], nums, mu, fruit_index)

    def test_empty_doc_with_mu_zero_rejected(self):
        index = build_index([Document("d1", "a"), Document("d2", "")], PLAIN)
        nums = index.doc_numbers(["d1", "d2"])
        with pytest.raises(ValueError, match="'d2' is empty and mu=0"):
            log_prob_matrix(["a"], nums, 0, index)
        # no term, no probability: nothing to reject
        assert log_prob_matrix([], nums, 0, index).shape == (0, 2)

    def test_unknown_head_doc_rejected(self, fruit_index):
        initial = RankedList("q", (("nope", 0.0),))
        config = ExperimentConfig(k=1, rerank_depth=1)
        with pytest.raises(KeyError, match="unknown doc_id 'nope'"):
            rerank_twqp(initial, {"apple": 1.0}, 5.0, config, fruit_index)
