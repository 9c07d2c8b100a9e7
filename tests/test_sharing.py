"""Shared per-query work against one call per consumer, bit for bit.

weigh_queries weighs every method from shared retrievals, rm3_table
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
import twqp.relevance
import twqp.rerank
import twqp.weighting
from twqp.config import ExperimentConfig
from twqp.index import Document, Index, build_index
from twqp.relevance import build_rm3, rm3_table
from twqp.rerank import rerank_many
from twqp.retrieval import LogProbMemo, Query, RankedList, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod, nwig_weights, weigh_queries, weigh_terms

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import restrict_top_n, scalar_nwig, scalar_rm3, top_n_terms

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


def table_models(*args):
    """rm3_table(*args)'s models, one term -> probability dict per depth,
    each read off its row in ranked order."""
    table = rm3_table(*args)
    return [
        {table.terms[j]: row[j] for j in columns.tolist()}
        for row, columns in zip(table.probs.tolist(), table.ranked)
    ]


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestWeighQueries:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_every_method_equals_its_own_weigh_terms(self, index, mu, data):
        n_docs = index.doc_count
        config = ExperimentConfig(
            k=data.draw(st.integers(1, n_docs + 1)),
            qpp_m=data.draw(st.one_of(st.none(), st.integers(1, n_docs + 2))),
        )
        pairs = []
        for i in range(data.draw(st.integers(1, 3))):
            q = draw_query(data, index, f"q{i}")
            vocabulary = data.draw(
                st.lists(st.sampled_from(index.vocabulary), min_size=1, max_size=6)
            )
            pairs.append((q, vocabulary))
        try:
            got = weigh_queries(pairs, ALL_METHODS, config, LogProbMemo(mu, index))
        except ValueError as exc:  # e.g. NQC on a one-term corpus
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                for q, vocabulary in pairs:
                    for method in ALL_METHODS:
                        weigh_terms(q, vocabulary, method, mu, config, index)
            return
        assert len(got) == len(pairs)
        for (q, vocabulary), by_method in zip(pairs, got):
            assert list(by_method) == list(ALL_METHODS)
            for method in ALL_METHODS:
                alone = weigh_terms(q, vocabulary, method, mu, config, index)
                assert same_items(by_method[method], alone)

    def test_overflowing_score_ratios(self):
        # d2 is long and holds "a" once: every ScoreRatio here reads inf.
        docs = [Document("d1", "a " * 50), Document("d2", "a " + "z " * 5000)]
        index = build_index(docs, PLAIN)
        q = Query("q", ("a",) * 100)
        config = ExperimentConfig()
        pairs = [(q, ["a", "z"]), (Query("q2", ("z", "a")), ["z", "a"])]
        got = weigh_queries(pairs, ALL_METHODS, config, LogProbMemo(10, index))
        for (q, vocabulary), by_method in zip(pairs, got):
            for method in ALL_METHODS:
                alone = weigh_terms(q, vocabulary, method, 10, config, index)
                assert list(by_method[method].items()) == list(alone.items())
        assert got[0][WeightingMethod.TWQP_SCORE_RATIO] == {"a": 1.0, "z": 0.0}

    def test_single_term_ratios_are_retrieved_once_per_call(self, monkeypatch):
        index = build_index([Document("d1", "a b c"), Document("d2", "b c c")], PLAIN)
        calls = []
        real = twqp.weighting.retrieve_topk

        def counted(q, *args, **kwargs):
            calls.append(q.terms)
            return real(q, *args, **kwargs)

        monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
        pairs = [(Query("q1", ("a",)), ["b", "c"]), (Query("q2", ("b",)), ["c", "a", "c"])]
        methods = (WeightingMethod.SCORE_RATIO_NORM,)
        weigh_queries(pairs, methods, ExperimentConfig(), LogProbMemo(10, index))
        assert calls == [("b",), ("c",), ("a",)]

    def test_one_term_query_retrieves_its_own_single_term_list(self, monkeypatch):
        index = build_index([Document("d1", "a b c"), Document("d2", "b c c")], PLAIN)
        calls = []
        real = twqp.weighting.retrieve_topk

        def counted(q, *args, **kwargs):
            calls.append(q.terms)
            return real(q, *args, **kwargs)

        monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
        methods = (WeightingMethod.NWIG, WeightingMethod.SCORE_RATIO_NORM)
        pairs = [(Query("q1", ("a",)), ["b", "a"]), (Query("q2", ("c", "c")), ["c"])]
        config = ExperimentConfig()
        got = weigh_queries(pairs, methods, config, LogProbMemo(10, index))
        # q1's own term "a" gets a single-term list of its own, the same bag
        # as q1's base list; q2's bag, c twice, is not the single-term "c" bag
        assert calls == [("a",), ("b",), ("a",), ("c", "c"), ("c",)]
        for (q, vocabulary), by_method in zip(pairs, got):
            for method in methods:
                alone = weigh_terms(q, vocabulary, method, 10, config, index)
                assert list(by_method[method].items()) == list(alone.items())

    def test_all_empty_score_ratio_warning_names_the_caller(self, fruit_index):
        method = WeightingMethod.SCORE_RATIO_NORM
        pairs = [(Query("q", ("apple",)), ["zzz", "yyy"])]
        with pytest.warns(UserWarning, match="all candidate retrievals empty") as record:
            memo = LogProbMemo(10.0, fruit_index)
            got = weigh_queries(pairs, (method,), ExperimentConfig(), memo)
        assert got[0][method] == {"zzz": 0.0, "yyy": 0.0}
        assert [w.filename for w in record] == [__file__]

    def test_empty_vocabulary_rejected_unless_only_sror(self, fruit_index):
        q = Query("q", ("apple", "banana"))
        config, memo = ExperimentConfig(), LogProbMemo(10.0, fruit_index)
        with pytest.raises(ValueError, match="vocabulary is empty"):
            methods = (WeightingMethod.SROR, WeightingMethod.NWIG)
            weigh_queries([(q, [])], methods, config, memo)
        got = weigh_queries([(q, [])], (WeightingMethod.SROR,), config, memo)
        assert list(got[0][WeightingMethod.SROR]) == ["apple", "banana"]


class TestBuildRm3Grid:
    """rm3_table's rows, read as dicts in ranked order, against the scalar
    model of each depth."""

    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_each_depth_equals_the_scalar_model(self, index, mu, data):
        q = draw_query(data, index)
        initial = retrieve_topk(q, 1000, mu, index)
        n = len(initial.entries)
        ms = data.draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=6))
        rm3_mu = data.draw(POSITIVE_MUS)  # mu = 0 is rejected (see below)
        lam = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            models = table_models(q, initial, ms, rm3_mu, lam, index)
        assert len(caught) == sum(m > n for m in ms)
        assert len(models) == len(ms)
        for m, rm in zip(ms, models):
            # the scalar model is in name order; the grid's is in rank order,
            # ties by name
            expected = scalar_rm3(q, initial, m, rm3_mu, lam, index)
            by_rank = dict(sorted(expected.items(), key=lambda item: -item[1]))
            assert same_items(rm, by_rank)

    def test_validation_matches_build_rm3(self, fruit_index):
        q = Query("q", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)
        with pytest.raises(ValueError, match="empty"):
            rm3_table(q, RankedList("q", ()), [1], 10.0, 0.5, fruit_index)
        with pytest.raises(ValueError, match="lambda"):
            rm3_table(q, initial, [1], 10.0, 1.5, fruit_index)
        with pytest.raises(ValueError, match="m must be >= 1"):
            rm3_table(q, initial, [2, 0], 10.0, 0.5, fruit_index)
        for mu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="RM3 requires mu > 0 and finite"):
                rm3_table(q, initial, [1], mu, 0.5, fruit_index)
        with pytest.raises(ValueError, match="n must be >= 1"):
            rm3_table(q, initial, [1], 10.0, 0.5, fruit_index, 0)

    def test_an_empty_depth_list_is_rejected_before_scoring(self, fruit_index, monkeypatch):
        q = Query("q", ("apple",))
        initial = retrieve_topk(q, 10, 10.0, fruit_index)

        def scored(*args):
            raise AssertionError("scored before the depths were checked")

        monkeypatch.setattr(twqp.relevance, "log_prob_matrix", scored)
        with pytest.raises(ValueError, match="list of feedback depths ms is empty"):
            rm3_table(q, initial, [], 1000.0, 0.5, fruit_index)

    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_clipped_model_is_the_whole_model_restricted(self, index, mu, data):
        q = draw_query(data, index)
        initial = retrieve_topk(q, 1000, mu, index)
        ms = data.draw(st.lists(st.integers(1, len(initial)), min_size=1, max_size=4))
        lam = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
        n = data.draw(st.integers(1, len(VOCAB) + 2))  # past the support too
        whole = table_models(q, initial, ms, mu, lam, index)
        clipped = table_models(q, initial, ms, mu, lam, index, n)
        for full, rm in zip(whole, clipped):
            assert rm == restrict_top_n(full, n)
            assert list(rm) == top_n_terms(full, n)

    def test_clip_breaks_exact_ties_by_name(self):
        # at lambda = 1 every feedback term has probability 0 and the one
        # query term 1: the clip keeps the query term, then zeros by name,
        # over more columns than a sort's small-array path covers
        names = [f"t{j:02d}" for j in range(40)]
        odd, even = " ".join(names[1::2]), " ".join(names[::2])
        docs = [Document("d1", f"q {odd}"), Document("d2", f"q {even}")]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("q",))
        initial = retrieve_topk(q, 10, 10.0, index)
        full = build_rm3(q, initial, 2, 10.0, 1.0, index)
        for n in (1, 3, 25, 41, 99):
            rm = build_rm3(q, initial, 2, 10.0, 1.0, index, n)
            assert list(rm) == ["q", *names][:n] == top_n_terms(full, n)
            assert rm == restrict_top_n(full, n)


class TestRerankMany:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_each_map_equals_a_one_map_call(self, index, mu, data):
        initial = retrieve_topk(draw_query(data, index), 1000, mu, index)
        depth = data.draw(st.integers(1, len(initial.entries)))
        config = ExperimentConfig(rerank_depth=depth)
        weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(1, 3))
        maps = data.draw(
            st.lists(st.dictionaries(st.sampled_from(index.vocabulary), weights), max_size=5)
        )
        if maps and data.draw(st.booleans()):
            maps[0] = {**maps[0], UNINDEXED: 0.0}  # a zero weight is skipped
        got = rerank_many(initial, maps, config, LogProbMemo(mu, index))
        assert len(got) == len(maps)
        for weights_map, run in zip(maps, got):
            assert run == rerank_many(initial, [weights_map], config, LogProbMemo(mu, index))[0]

    def test_unindexed_weighted_term_rejected(self, fruit_index):
        initial = retrieve_topk(Query("q", ("apple",)), 10, 10.0, fruit_index)
        config = ExperimentConfig(k=10, rerank_depth=2)
        with pytest.raises(ValueError, match="'zz' has zero smoothed probability"):
            memo = LogProbMemo(10.0, fruit_index)
            rerank_many(initial, [{"apple": 1.0}, {"zz": 0.5}], config, memo)


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
            got = nwig_weights(terms, lst, m, LogProbMemo(mu, index))
        expected = {w: scalar_nwig(w, lst, m, mu, index) for w in terms}
        assert list(got.items()) == list(expected.items())


class TestWorkCounts:
    """Counts of shared work on the criterion-7 fixture; no timing."""

    def test_retrievals_and_head_gathers(self, tmp_path, monkeypatch):
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
        for module in OTHER_RETRIEVERS:
            real_retrieve = module.retrieve_topk
            monkeypatch.setattr(module, "retrieve_topk", counting("other", real_retrieve))
        relevance_logs = counting("relevance", twqp.relevance.log_prob_matrix)
        monkeypatch.setattr(twqp.relevance, "log_prob_matrix", relevance_logs)
        reranking = []
        head_memos = set()  # the memos heads are gathered from
        real_gather, real_rerank = LogProbMemo.matrix, twqp.rerank.rerank_table

        def gather(memo, *args, **kwargs):
            if reranking:
                counts["head gathers", bool(tuning)] += 1
                head_memos.add(memo)
            return real_gather(memo, *args, **kwargs)

        def rerank(*args, **kwargs):
            reranking.append(True)
            try:
                return real_rerank(*args, **kwargs)
            finally:
                reranking.clear()

        monkeypatch.setattr(LogProbMemo, "matrix", gather)
        # tuning calls the re-rank core directly, rerank_many through twqp.rerank
        for module in (twqp.evaluation, twqp.rerank):
            monkeypatch.setattr(module, "rerank_table", rerank)
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
        # one single-term ScoreRatio list per distinct candidate of the call
        singles = len({w for v in vocabularies for w in v})
        expected = sum(1 + len(v) for v in vocabularies) + singles
        assert counts["retrievals", False] + counts["retrievals", True] == expected
        # tuning re-ranks the lists it is given; it retrieves nothing itself
        assert counts["other", True] == 0
        assert counts["relevance", True] == counts["head gathers", True] == live > 0
        # outside tuning: one RM3 scoring and one head gather per live query
        assert counts["relevance", False] == counts["head gathers", False] == live
        # every head is gathered from the experiment's one memo
        assert len(head_memos) == 1

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
        for module in OTHER_RETRIEVERS + (twqp.weighting,):
            assert vars(module).get("retrieve_topk") is real_retrieve, module.__name__
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
