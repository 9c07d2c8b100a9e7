"""Weighted re-scoring of ranked-list heads and tail preservation."""

import math
import re

import numpy as np
import pytest

import twqp.rerank
from twqp.config import ExperimentConfig
from twqp.index import Document, build_index
from twqp.rerank import check_rerank, rerank_many, rerank_twqp
from twqp.retrieval import LogProbMemo, Query, retrieve_topk

from conftest import PLAIN, make_random_corpus, random_query
from oracle import indicator_weights, smoothed_prob


CONFIG = ExperimentConfig()
FULL_DEPTH = ExperimentConfig(rerank_depth=1000)


def _unreachable(*args, **kwargs):
    raise AssertionError("scored before the settings were checked")


class TestRerankRule:
    """check_rerank rejects a depth or mu no head can be re-ranked with;
    rerank_twqp makes that check before it builds a memo, and rerank_many,
    given a memo, before it scores a document."""

    def _rejected(self, index, monkeypatch, mu, config, message):
        initial = retrieve_topk(Query("q", ("apple",)), 10, 10.0, index)
        memo = LogProbMemo(mu, index) if 0 < mu < math.inf else None
        monkeypatch.setattr(twqp.rerank, "LogProbMemo", _unreachable)
        monkeypatch.setattr(LogProbMemo, "matrix", _unreachable)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_rerank(mu, config)
        with pytest.raises(ValueError, match=re.escape(message)):
            rerank_twqp(initial, {"apple": 1.0}, mu, config, index)
        if memo is not None:  # a memo holds only a positive, finite mu
            with pytest.raises(ValueError, match=re.escape(message)):
                rerank_many(initial, [{"apple": 1.0}], config, memo)

    def test_depth_below_one_rejected(self, fruit_index, monkeypatch):
        config = ExperimentConfig(rerank_depth=0)
        self._rejected(fruit_index, monkeypatch, 1000.0, config, "need 1 <= rerank_depth <= k")

    def test_depth_above_k_rejected(self, fruit_index, monkeypatch):
        for config in (ExperimentConfig(k=10, rerank_depth=50), ExperimentConfig(k=0)):
            message = f"rerank_depth={config.rerank_depth}, k={config.k}"
            self._rejected(fruit_index, monkeypatch, 1000.0, config, message)

    def test_nonpositive_mu_rejected(self, fruit_index, monkeypatch):
        for mu in (0.0, -5.0, math.nan, math.inf):
            message = f"rerank requires mu > 0 and finite, got {mu}"
            self._rejected(fruit_index, monkeypatch, mu, CONFIG, message)

    def test_mu_to_be_tuned_stands_for_the_grid(self):
        check_rerank(None, ExperimentConfig(mu_grid=(1, 5000)))
        with pytest.raises(ValueError, match="mu_grid values must be > 0 to re-rank, got 0"):
            check_rerank(None, ExperimentConfig(mu_grid=(0, 5000)))
        with pytest.raises(ValueError, match="need 1 <= rerank_depth <= k"):
            check_rerank(None, ExperimentConfig(k=50, mu_grid=(0, 5000)))

    def test_smallest_valid_values_accepted(self, fruit_index):
        initial = retrieve_topk(Query("q", ("apple",)), 1, 10.0, fruit_index)
        config = ExperimentConfig(k=1, rerank_depth=1)
        memo = LogProbMemo(1e-9, fruit_index)
        reranked = rerank_many(initial, [{"apple": 1.0}], config, memo)[0]
        assert reranked.doc_ids == initial.doc_ids


class TestIndicatorReduction:
    """A table of query term counts must reproduce query likelihood exactly."""

    def test_counts_table_matches_initial_retrieval_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            index = build_index(make_random_corpus(rng, n_docs=40), PLAIN)
            q = random_query(rng, index, max_terms=4, allow_duplicates=True)
            mu = float(rng.integers(50, 3000))
            base = retrieve_topk(q, 1000, mu, index)
            if not base.entries:
                continue
            rr = rerank_many(base, [indicator_weights(q)], FULL_DEPTH, LogProbMemo(mu, index))[0]
            # ids, order, and scores all identical: same sorted-term summation
            assert rr.entries == base.entries
            assert rr.query_id == base.query_id


class TestRescoring:
    def _random_setup(self, rng, n_docs=30):
        index = build_index(make_random_corpus(rng, n_docs=n_docs), PLAIN)
        q = random_query(rng, index, max_terms=3)
        base = retrieve_topk(q, 1000, 1000.0, index)
        return index, q, base

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(10):
            index, q, base = self._random_setup(rng)
            if len(base.entries) < 2:
                continue
            vocab = index.vocabulary
            terms = rng.choice(len(vocab), size=min(5, len(vocab)), replace=False)
            weights = {vocab[i]: float(rng.uniform(0.05, 1.0)) for i in terms}
            rr = rerank_twqp(base, weights, 800.0, FULL_DEPTH, index)
            expected = {}
            for doc_id, _ in base.entries:
                expected[doc_id] = math.fsum(
                    weights[w] * math.log(smoothed_prob(w, doc_id, 800.0, index))
                    for w in weights
                )
            for doc_id, score in rr.entries:
                assert score == pytest.approx(expected[doc_id], abs=1e-12)
            order = sorted(expected, key=lambda d: (-expected[d], d))
            assert [doc_id for doc_id, _ in rr.entries] == order
            checked += 1
        assert checked >= 5

    def test_zero_weight_equals_absent_term(self):
        docs = [
            Document("d1", "apple banana apple"),
            Document("d2", "banana cherry"),
            Document("d3", "apple cherry cherry"),
        ]
        index = build_index(docs, PLAIN)
        base = retrieve_topk(Query("q1", ("apple", "cherry")), 10, 100.0, index)
        config = ExperimentConfig(k=10, rerank_depth=10)
        with_zero = rerank_twqp(base, {"apple": 0.7, "cherry": 0.0}, 100.0, config, index)
        without = rerank_twqp(base, {"apple": 0.7}, 100.0, config, index)
        assert with_zero.entries == without.entries

    def test_zero_weight_unindexed_term_skipped(self):
        docs = [Document("d1", "apple banana"), Document("d2", "banana")]
        index = build_index(docs, PLAIN)
        base = retrieve_topk(Query("q1", ("banana",)), 10, 50.0, index)
        config = ExperimentConfig(k=10, rerank_depth=10)
        rr = rerank_twqp(base, {"banana": 1.0, "zzz": 0.0}, 50.0, config, index)
        assert [doc_id for doc_id, _ in rr.entries] == ["d2", "d1"]

    def test_unindexed_term_with_weight_rejected(self):
        docs = [Document("d1", "apple banana")]
        index = build_index(docs, PLAIN)
        base = retrieve_topk(Query("q1", ("apple",)), 10, 50.0, index)
        config = ExperimentConfig(k=10, rerank_depth=10)
        with pytest.raises(ValueError, match="zero smoothed probability"):
            rerank_twqp(base, {"zzz": 0.5}, 50.0, config, index)

    def test_scaled_weights_preserve_order(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            index, q, base = self._random_setup(rng)
            if len(base.entries) < 3:
                continue
            vocab = index.vocabulary
            weights = {
                vocab[i]: float(rng.uniform(0.1, 0.9))
                for i in rng.choice(len(vocab), size=4, replace=False)
            }
            scaled = {w: 3.7 * v for w, v in weights.items()}
            a = rerank_twqp(base, weights, 600.0, FULL_DEPTH, index)
            b = rerank_twqp(base, scaled, 600.0, FULL_DEPTH, index)
            assert [d for d, _ in a.entries] == [d for d, _ in b.entries]

    def test_rerank_is_deterministic(self):
        rng = np.random.default_rng(37)
        index, q, base = self._random_setup(rng)
        weights = {w: 0.5 for w in q.terms}
        a = rerank_twqp(base, weights, 1000.0, FULL_DEPTH, index)
        b = rerank_twqp(base, weights, 1000.0, FULL_DEPTH, index)
        assert a == b


class TestHeadTail:
    def _six_doc_index(self):
        docs = [
            Document("d1", "apple apple apple banana"),
            Document("d2", "apple apple banana banana"),
            Document("d3", "apple banana banana banana"),
            Document("d4", "apple cherry"),
            Document("d5", "banana cherry"),
            Document("d6", "apple banana cherry date"),
        ]
        return build_index(docs, PLAIN)

    def test_tail_keeps_original_entries(self):
        index = self._six_doc_index()
        base = retrieve_topk(Query("q1", ("apple", "banana")), 10, 200.0, index)
        assert len(base.entries) == 6
        config = ExperimentConfig(k=10, rerank_depth=3)
        # weight only banana so the head order flips
        rr = rerank_twqp(base, {"banana": 1.0}, 200.0, config, index)
        assert rr.entries[3:] == base.entries[3:]
        assert {d for d, _ in rr.entries[:3]} == {d for d, _ in base.entries[:3]}

    def test_head_reordered_by_new_scores(self):
        index = self._six_doc_index()
        base = retrieve_topk(Query("q1", ("apple", "banana")), 10, 200.0, index)
        config = ExperimentConfig(k=10, rerank_depth=3)
        rr = rerank_twqp(base, {"banana": 1.0}, 200.0, config, index)
        head_ids = [d for d, _ in rr.entries[:3]]
        # among the original top 3, d3 has the most banana mass
        assert head_ids[0] == "d3"
        scores = [s for _, s in rr.entries[:3]]
        assert scores == sorted(scores, reverse=True)

    def test_depth_beyond_list_length_rescans_everything(self):
        index = self._six_doc_index()
        base = retrieve_topk(Query("q1", ("cherry",)), 10, 200.0, index)
        rr = rerank_twqp(base, {"cherry": 1.0}, 200.0, CONFIG, index)
        assert len(rr.entries) == len(base.entries)
        assert {d for d, _ in rr.entries} == {d for d, _ in base.entries}

    def test_output_is_permutation_with_same_metadata(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            index = build_index(make_random_corpus(rng, n_docs=35), PLAIN)
            q = random_query(rng, index, max_terms=3)
            base = retrieve_topk(q, 1000, 900.0, index)
            if not base.entries:
                continue
            depth = int(rng.integers(1, len(base.entries) + 1))
            config = ExperimentConfig(rerank_depth=depth)
            weights = {w: float(rng.uniform(0.1, 1.0)) for w in set(q.terms)}
            rr = rerank_twqp(base, weights, 900.0, config, index)
            assert sorted(d for d, _ in rr.entries) == sorted(d for d, _ in base.entries)
            assert rr.query_id == base.query_id


class TestRerankRM3:
    """RM3Opt re-ranks with the relevance model's term distribution, as
    passed, through rerank_many."""

    TEN = ExperimentConfig(k=10, rerank_depth=10)

    def _index(self):
        docs = [
            Document("d1", "apple apple apple banana"),
            Document("d2", "apple banana banana banana"),
            Document("d3", "apple banana cherry cherry"),
        ]
        return build_index(docs, PLAIN)

    def test_point_mass_scores_by_single_term(self):
        index = self._index()
        base = retrieve_topk(Query("q1", ("apple",)), 10, 300.0, index)
        rr = rerank_many(base, [{"banana": 1.0}], self.TEN, LogProbMemo(300.0, index))[0]
        for doc_id, score in rr.entries:
            assert score == 1.0 * math.log(smoothed_prob("banana", doc_id, 300.0, index))
        assert [d for d, _ in rr.entries][0] == "d2"

    def test_uniform_two_term_model(self):
        index = self._index()
        base = retrieve_topk(Query("q1", ("apple",)), 10, 300.0, index)
        memo = LogProbMemo(300.0, index)
        rr = rerank_many(base, [{"apple": 0.5, "cherry": 0.5}], self.TEN, memo)[0]
        for doc_id, score in rr.entries:
            expected = 0.5 * math.log(
                smoothed_prob("apple", doc_id, 300.0, index)
            ) + 0.5 * math.log(smoothed_prob("cherry", doc_id, 300.0, index))
            assert score == pytest.approx(expected, abs=1e-12)

    def test_model_probabilities_used_as_passed(self):
        # doubling the distribution doubles every score: no renormalization
        index = self._index()
        base = retrieve_topk(Query("q1", ("apple",)), 10, 300.0, index)
        probs = {"apple": 0.3, "banana": 0.2}
        maps = [probs, {w: 2.0 * p for w, p in probs.items()}]
        one, two = rerank_many(base, maps, self.TEN, LogProbMemo(300.0, index))
        doubled = {d: s for d, s in two.entries}
        for doc_id, score in one.entries:
            assert doubled[doc_id] == 2.0 * score
