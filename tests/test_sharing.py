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
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twqp.cli
import twqp.evaluation
import twqp.experiment
import twqp.qpp
import twqp.relevance
import twqp.rerank
import twqp.weighting
from twqp.config import ExperimentConfig
from twqp.index import Document, Index, build_index
from twqp.qpp import nwig_weights
from twqp.relevance import RelevanceModel, build_rm3_grid, top_n_terms
from twqp.rerank import RerankConfig, rerank_many
from twqp.retrieval import Query, RankedList, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod, WeightingParams, weigh_queries, weigh_terms

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import scalar_nwig, scalar_rm3

ALL_METHODS = tuple(WeightingMethod)
# Modules, other than the weighters, that bind retrieve_topk.
OTHER_RETRIEVERS = (twqp.retrieval, twqp.experiment, twqp.cli)

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
    def test_each_map_equals_a_one_map_call(self, index, mu, data):
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
            assert run == rerank_many(initial, [weights_map], cfg, index)[0]

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
        counts = Counter()  # (what, while tuning) -> calls
        seen = {"pairs": None, "live": None}
        tuning = []

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key, bool(tuning)] += 1
                return fn(*args, **kwargs)

            return wrapper

        retrieve = counting("retrievals", twqp.weighting.retrieve_topk)
        monkeypatch.setattr(twqp.weighting, "retrieve_topk", retrieve)
        monkeypatch.setattr(twqp.qpp, "retrieve_topk", retrieve)
        for module in OTHER_RETRIEVERS:
            real_retrieve = module.retrieve_topk
            monkeypatch.setattr(module, "retrieve_topk", counting("other", real_retrieve))
        for module in (twqp.relevance, twqp.rerank):
            key = module.__name__.rpartition(".")[2]
            monkeypatch.setattr(module, "log_prob_matrix", counting(key, module.log_prob_matrix))

        real_tune, real_weigh = twqp.experiment.tune_rm3_m, twqp.experiment.weigh_queries

        def tune(lists, *args, **kwargs):
            seen["live"] = len(lists)
            tuning.append(True)
            try:
                return real_tune(lists, *args, **kwargs)
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
        pairs, live = seen["pairs"], seen["live"]
        assert pairs and all(len(q.terms) == 1 for q, _ in pairs)  # SROR retrieves nothing
        vocabularies = [v for _, v in pairs]
        expected = sum(1 + len(v) for v in vocabularies) + len(set().union(*vocabularies))
        assert counts["retrievals", False] + counts["retrievals", True] == expected
        # tuning re-ranks the lists it is given; it retrieves nothing itself
        assert counts["other", True] == 0
        assert counts["relevance", True] == counts["rerank", True] == live > 0
        # outside tuning: one RM3 scoring and one head matrix per live query
        assert counts["relevance", False] == counts["rerank", False] == live

    def test_tuning_gathers_once_and_weighing_reads_list_numbers(self, tmp_path, monkeypatch):
        paths = write_collection(make_synthetic(32), tmp_path / "data")
        counts = Counter()  # (what, stage running) -> calls
        stage = []
        tuned = []

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key, stage[-1] if stage else None] += 1
                return fn(*args, **kwargs)

            return wrapper

        def staged(name, fn):
            def wrapper(*args, **kwargs):
                stage.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage.pop()

            return wrapper

        for name in ("matching_docs", "doc_numbers"):
            monkeypatch.setattr(Index, name, counting(name, getattr(Index, name)))
        real_retrieve = twqp.retrieval.retrieve_topk
        for module in OTHER_RETRIEVERS + (twqp.evaluation, twqp.qpp, twqp.weighting):
            if vars(module).get("retrieve_topk") is real_retrieve:
                monkeypatch.setattr(module, "retrieve_topk", counting("retrieve_topk", real_retrieve))
        real_tune_mu = twqp.experiment.tune_mu

        def tune_mu(queries, *args, **kwargs):
            tuned.append(len(queries))
            return real_tune_mu(queries, *args, **kwargs)

        monkeypatch.setattr(twqp.experiment, "tune_mu", staged("tune_mu", tune_mu))
        monkeypatch.setattr(
            twqp.experiment, "weigh_queries", staged("weigh", twqp.experiment.weigh_queries)
        )
        twqp.experiment.run_experiment(
            ExperimentConfig(
                corpus=str(paths["corpus"]),
                topics=str(paths["topics"]),
                qrels=str(paths["qrels"]),
                output_dir=str(tmp_path / "out"),
            )
        )
        assert tuned == [20]
        # the candidates of each query are gathered once for the whole mu grid
        # (50 times, once per grid point, when tuning retrieved per mu)
        assert counts["matching_docs", "tune_mu"] == 20
        assert counts["retrieve_topk", "tune_mu"] == 0
        # WIG and nWIG read the retrieved lists' own document numbers
        assert counts["retrieve_topk", "weigh"] > 0
        assert counts["doc_numbers", "weigh"] == 0
