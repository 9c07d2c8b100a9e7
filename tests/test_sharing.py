"""Shared per-query work against one call per consumer, bit for bit.

weigh_queries weighs every method from shared retrievals, build_rm3_grid
builds every feedback depth from one scoring pass, rerank_many re-ranks
with every weight map from one head matrix, and nwig_weights weighs every
term from one log matrix.  Each must give what the one-at-a-time path
gives: the same floats (compared with ==) and the same key order.
"""

import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twqp.experiment
import twqp.qpp
import twqp.relevance
import twqp.rerank
import twqp.weighting
from twqp.config import ExperimentConfig
from twqp.index import Document, build_index
from twqp.qpp import nwig_weights
from twqp.relevance import RelevanceModel, build_rm3_grid, top_n_terms
from twqp.rerank import RerankConfig, rerank_many, rerank_rm3
from twqp.retrieval import Query, RankedList, retrieve_topk, score_ql, smoothed_prob
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod, WeightingParams, weigh_queries, weigh_terms

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora

ALL_METHODS = tuple(WeightingMethod)

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def draw_query(data, index, query_id="q"):
    """1-4 indexed terms, duplicates allowed."""
    terms = data.draw(st.lists(st.sampled_from(index.vocabulary), min_size=1, max_size=4))
    return Query(query_id, tuple(terms))


def same(a, b):
    """Float equality that also matches NaN with NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def same_items(got: dict, expected: dict) -> bool:
    return list(got) == list(expected) and all(same(got[k], expected[k]) for k in got)


# ---------------------------------------------------------------------------
# Scalar references: the one-document loops the shared code replaced.
# ---------------------------------------------------------------------------


def scalar_rm3(q, initial, m, mu, lam, index):
    m = min(m, len(initial.entries))
    feedback_docs = [doc_id for doc_id, _ in initial.entries[:m]]
    log_scores = [score_ql(q, d, mu, index) for d in feedback_docs]
    top = max(log_scores)
    raw = [math.exp(s - top) for s in log_scores]
    z = sum(raw)
    feedback = {}
    for d, r in zip(feedback_docs, raw):
        length = index.doc_length(d)
        for w, tf in index.doc_vector(d).items():
            feedback[w] = feedback.get(w, 0.0) + (r / z) * (tf / length)
    counts = q.term_counts()
    qlen = len(q.terms)
    return {
        w: lam * (counts.get(w, 0) / qlen) + (1.0 - lam) * feedback.get(w, 0.0)
        for w in sorted(set(feedback) | set(counts))
    }


def scalar_nwig(w, lst, m, mu, index):
    m = min(m, len(lst.entries))
    p_collection = index.collection_tf.get(w, 0) / index.total_tokens
    if p_collection == 0.0 or math.log(p_collection) == 0.0:
        return 0.0
    log_pd = math.log(p_collection)
    mean_log = sum(math.log(smoothed_prob(w, d, mu, index)) for d, _ in lst.entries[:m]) / m
    return (mean_log - log_pd) / (-log_pd)


# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestWeighQueries:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_every_method_equals_its_own_weigh_terms(self, index, mu, data):
        n_docs = index.doc_count
        params = WeightingParams(
            mu=mu,
            k=data.draw(st.integers(1, n_docs + 1)),
            predictor_m=data.draw(st.one_of(st.none(), st.integers(1, n_docs + 2))),
            nwig_m=data.draw(st.integers(1, n_docs + 2)),
        )
        pairs = []
        for i in range(data.draw(st.integers(1, 3))):
            q = draw_query(data, index, f"q{i}")
            vocabulary = data.draw(
                st.lists(st.sampled_from(index.vocabulary), min_size=1, max_size=6)
            )
            pairs.append((q, vocabulary))
        try:
            got = weigh_queries(pairs, ALL_METHODS, params, index)
        except ValueError as exc:  # e.g. NQC on a one-term corpus
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                for q, vocabulary in pairs:
                    for method in ALL_METHODS:
                        weigh_terms(q, vocabulary, method, params, index)
            return
        assert len(got) == len(pairs)
        for (q, vocabulary), tables in zip(pairs, got):
            assert list(tables) == list(ALL_METHODS)
            for method in ALL_METHODS:
                alone = weigh_terms(q, vocabulary, method, params, index)
                assert tables[method].query_id == q.query_id
                assert tables[method].method is method
                assert same_items(tables[method].weights, alone.weights)

    def test_overflowing_score_ratios(self):
        # d2 is long and holds "a" once: every ScoreRatio here reads inf.
        docs = [Document("d1", "a " * 50), Document("d2", "a " + "z " * 5000)]
        index = build_index(docs, PLAIN)
        q = Query("q", ("a",) * 100)
        params = WeightingParams(mu=10)
        pairs = [(q, ["a", "z"]), (Query("q2", ("z", "a")), ["z", "a"])]
        got = weigh_queries(pairs, ALL_METHODS, params, index)
        for (q, vocabulary), tables in zip(pairs, got):
            for method in ALL_METHODS:
                alone = weigh_terms(q, vocabulary, method, params, index)
                assert list(tables[method].weights.items()) == list(alone.weights.items())
        assert got[0][WeightingMethod.TWQP_SCORE_RATIO].weights == {"a": 1.0, "z": 0.0}

    def test_single_term_ratios_are_retrieved_once_per_call(self, monkeypatch):
        index = build_index([Document("d1", "a b c"), Document("d2", "b c c")], PLAIN)
        calls = []
        real = twqp.weighting.retrieve_topk

        def counted(q, *args, **kwargs):
            calls.append(q.terms)
            return real(q, *args, **kwargs)

        monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
        pairs = [(Query("q1", ("a",)), ["b", "c"]), (Query("q2", ("b",)), ["c", "a", "c"])]
        weigh_queries(pairs, (WeightingMethod.SCORE_RATIO_NORM,), WeightingParams(mu=10), index)
        assert calls == [("b",), ("c",), ("a",)]

    def test_empty_vocabulary_rejected_unless_only_sror(self, fruit_index):
        q = Query("q", ("apple", "banana"))
        params = WeightingParams(mu=10.0)
        with pytest.raises(ValueError, match="vocabulary is empty"):
            methods = (WeightingMethod.SROR, WeightingMethod.NWIG)
            weigh_queries([(q, [])], methods, params, fruit_index)
        tables = weigh_queries([(q, [])], (WeightingMethod.SROR,), params, fruit_index)
        assert list(tables[0][WeightingMethod.SROR].weights) == ["apple", "banana"]


class TestBuildRm3Grid:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_each_depth_equals_the_scalar_model(self, index, mu, data):
        q = draw_query(data, index)
        initial = retrieve_topk(q, 1000, mu, index)
        n = len(initial.entries)
        ms = data.draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=6))
        rm3_mu = data.draw(st.one_of(st.just(0.0), POSITIVE_MUS))
        lam = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            models = build_rm3_grid(q, initial, ms, rm3_mu, lam, index)
        assert len(caught) == sum(m > n for m in ms)
        assert len(models) == len(ms)
        for m, rm in zip(ms, models):
            assert (rm.query_id, rm.m, rm.mu, rm.lam) == (q.query_id, min(m, n), rm3_mu, lam)
            assert same_items(rm.term_probs, scalar_rm3(q, initial, m, rm3_mu, lam, index))

    def test_validation_matches_build_rm3(self, fruit_index):
        q = Query("q", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        with pytest.raises(ValueError, match="empty"):
            build_rm3_grid(q, RankedList("q", (), 10), [1], 10.0, 0.5, fruit_index)
        with pytest.raises(ValueError, match="lambda"):
            build_rm3_grid(q, initial, [1], 10.0, 1.5, fruit_index)
        with pytest.raises(ValueError, match="m must be >= 1"):
            build_rm3_grid(q, initial, [2, 0], 10.0, 0.5, fruit_index)


class TestRerankMany:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_each_map_equals_rerank_rm3(self, index, mu, data):
        initial = retrieve_topk(draw_query(data, index), 1000, mu, index)
        depth = data.draw(st.integers(1, len(initial.entries)))
        cfg = RerankConfig(mu=mu, rerank_depth=depth, k=1000)
        weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(1, 3))
        maps = data.draw(
            st.lists(st.dictionaries(st.sampled_from(index.vocabulary), weights), max_size=5)
        )
        if maps and data.draw(st.booleans()):
            maps[0] = {**maps[0], UNINDEXED: 0.0}  # a zero weight is skipped
        got = rerank_many(initial, maps, cfg, index)
        assert len(got) == len(maps)
        for weights_map, run in zip(maps, got):
            model = RelevanceModel("q", weights_map, 1, mu, 0.5)
            assert run == rerank_rm3(initial, model, cfg, index)

    def test_unindexed_weighted_term_rejected(self, fruit_index):
        initial = retrieve_topk(Query("q", ("apple",)), 10, 10.0, fruit_index)
        cfg = RerankConfig(mu=10.0, rerank_depth=2, k=10)
        with pytest.raises(ValueError, match="'zz' has zero smoothed probability"):
            rerank_many(initial, [{"apple": 1.0}, {"zz": 0.5}], cfg, fruit_index)


class TestNwigWeights:
    # Lists of 8 or more documents, where a pairwise sum would differ.
    @PROPERTY
    @given(index=corpora(max_docs=40), mu=POSITIVE_MUS, data=st.data())
    def test_equals_the_scalar_formula(self, index, mu, data):
        lst = retrieve_topk(draw_query(data, index), 1000, mu, index)
        m = data.draw(st.integers(1, len(lst.entries) + 3))
        terms = data.draw(st.lists(st.sampled_from(VOCAB + (UNINDEXED,)), max_size=7))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = nwig_weights(terms, lst, m, mu, index)
        expected = {w: scalar_nwig(w, lst, m, mu, index) for w in terms}
        assert list(got.items()) == list(expected.items())

    def test_mu_zero_absent_term_gives_minus_inf(self, fruit_index):
        lst = retrieve_topk(Query("q", ("banana",)), 10, 0.0, fruit_index)
        assert nwig_weights(["apple", "banana"], lst, 5, 0.0, fruit_index)["apple"] == -math.inf


class TestTopNTerms:
    @given(
        probs=st.dictionaries(
            st.text("abcde", min_size=1, max_size=3),
            st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0),
        ),
        n=st.integers(1, 12),
    )
    def test_equals_sort_by_probability_then_name(self, probs, n):
        rm = RelevanceModel("q", probs, 1, 10.0, 0.5)
        expected = [w for w, _ in sorted(probs.items(), key=lambda e: (-e[1], e[0]))[:n]]
        assert top_n_terms(rm, n) == expected


class TestWorkCounts:
    """Counts of shared work on the criterion-7 fixture; no timing."""

    def test_retrievals_and_head_matrices(self, tmp_path, monkeypatch):
        paths = write_collection(make_synthetic(32), tmp_path / "data")
        counts = {"retrievals": 0, "relevance": 0, "rerank": 0}
        seen = {"pairs": None, "live": None}
        tuning = []

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                if key == "retrievals" or tuning:
                    counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        retrieve = counting("retrievals", twqp.weighting.retrieve_topk)
        monkeypatch.setattr(twqp.weighting, "retrieve_topk", retrieve)
        monkeypatch.setattr(twqp.qpp, "retrieve_topk", retrieve)
        for module in (twqp.relevance, twqp.rerank):
            key = module.__name__.rpartition(".")[2]
            monkeypatch.setattr(module, "log_prob_matrix", counting(key, module.log_prob_matrix))

        real_tune, real_weigh = twqp.experiment.tune_rm3_m, twqp.experiment.weigh_queries

        def tune(index, queries, *args, **kwargs):
            seen["live"] = len(queries)
            tuning.append(True)
            try:
                return real_tune(index, queries, *args, **kwargs)
            finally:
                tuning.clear()

        def weigh(pairs, *args, **kwargs):
            seen["pairs"] = list(pairs)
            return real_weigh(pairs, *args, **kwargs)

        monkeypatch.setattr(twqp.experiment, "tune_rm3_m", tune)
        monkeypatch.setattr(twqp.experiment, "weigh_queries", weigh)
        twqp.experiment.run_experiment(
            ExperimentConfig(
                corpus=str(paths["corpus"]),
                topics=str(paths["topics"]),
                qrels=str(paths["qrels"]),
                output_dir=str(tmp_path / "out"),
            )
        )
        pairs = seen["pairs"]
        assert pairs and all(len(q.terms) == 1 for q, _ in pairs)  # SROR retrieves nothing
        vocabularies = [v for _, v in pairs]
        expected = sum(1 + len(v) for v in vocabularies) + len(set().union(*vocabularies))
        assert counts["retrievals"] == expected
        assert counts["relevance"] == counts["rerank"] == seen["live"] > 0
