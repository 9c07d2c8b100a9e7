"""Sigmoid term weights, quality deltas, retrieval budget, baseline weighters."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import twqp.retrieval
import twqp.weighting
from twqp.config import ExperimentConfig
from twqp.index import Document, Index, build_index
from twqp.qpp import PredictorKind, PredictorSpec, predict_nqc, predict_score_ratio, score_gap
from twqp.relevance import build_rm3
from twqp.retrieval import LogProbMemo, Query, expand_query, retrieve_topk
from twqp.weighting import (
    WeightingMethod,
    dump_weight_tables,
    twqp_weight,
    weigh_queries,
    weigh_terms,
)

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora, make_random_corpus, random_query


CONFIG = ExperimentConfig()
TWQP_METHODS = (
    WeightingMethod.TWQP_WIG,
    WeightingMethod.TWQP_NQC,
    WeightingMethod.TWQP_SCORE_RATIO,
)


def _unreachable(*args, **kwargs):
    raise AssertionError("retrieved before the settings were checked")


class TestWeighingSettings:
    """weigh_queries rejects a mu or k no list can be weighed at before it
    retrieves anything, under every method."""

    @pytest.mark.parametrize("mu", [0, 0.0, -1.0, math.nan, math.inf])
    def test_non_positive_mu_rejected(self, fruit_index, monkeypatch, mu):
        monkeypatch.setattr(twqp.weighting, "retrieve_topk", _unreachable)
        q = Query("q0", ("apple",))
        for method in WeightingMethod:
            with pytest.raises(ValueError, match="weighting requires mu > 0 and finite"):
                weigh_terms(q, ["banana"], method, mu, CONFIG, fruit_index)

    def test_k_below_one_rejected(self, fruit_index, monkeypatch):
        # retrieve_topk makes the check before it looks up a candidate
        monkeypatch.setattr(Index, "matching_docs", _unreachable)
        q = Query("q0", ("apple",))
        for method in WeightingMethod:
            with pytest.raises(ValueError, match="k must be >= 1, got 0"):
                weigh_terms(q, ["banana"], method, 10.0, ExperimentConfig(k=0), fruit_index)

    def test_smallest_valid_values_accepted(self, fruit_index):
        q = Query("q0", ("apple",))
        weights = weigh_terms(
            q, ["banana"], WeightingMethod.TWQP_NQC, 1e-9, ExperimentConfig(k=1), fruit_index
        )
        assert set(weights) == {"banana"}


class TestTwqpWeight:
    def test_fixed_points(self):
        assert twqp_weight(0.0) == 0.5
        assert abs(twqp_weight(math.log(3)) - 0.75) < 1e-12
        assert abs(twqp_weight(-math.log(3)) - 0.25) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(83)
        for x in rng.uniform(-30, 30, size=200):
            assert abs(twqp_weight(x) + twqp_weight(-x) - 1.0) < 1e-12

    def test_strictly_monotone(self):
        grid = np.linspace(-30, 30, 500)
        values = [twqp_weight(float(x)) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extremes(self):
        assert twqp_weight(math.inf) == 1.0
        assert twqp_weight(-math.inf) == 0.0
        # beyond float64 resolution the logistic saturates exactly
        assert twqp_weight(1000.0) == 1.0
        assert twqp_weight(-1000.0) == 0.0
        # moderate magnitudes stay strictly inside (0, 1)
        assert 0.0 < twqp_weight(-30.0) < 0.5 < twqp_weight(30.0) < 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            twqp_weight(float("nan"))


class TestDeltaP:
    """The delta of a TWQP weight: the predicted quality of the q+w list
    minus that of the base list, computed inside weigh_queries."""

    def _setup(self, seed=89):
        rng = np.random.default_rng(seed)
        index = build_index(make_random_corpus(rng, 25), PLAIN)
        q = random_query(rng, index, max_terms=2)
        base = retrieve_topk(q, 1000, 500.0, index)
        return index, q, base

    def _weights(self, index, q, vocabulary):
        """TWQP(NQC) at depth 1000 and NQC's default cutoff."""
        method = WeightingMethod.TWQP_NQC
        memo = LogProbMemo(500.0, index)
        weighed = weigh_queries([(q, vocabulary)], [method], ExperimentConfig(k=1000), memo)
        return weighed[0][method]

    def test_equals_manual_difference(self):
        index, q, base = self._setup()
        spec = PredictorSpec(PredictorKind.NQC)
        w = index.vocabulary[0]
        expanded = expand_query(q, w)
        expanded_list = retrieve_topk(expanded, 1000, 500.0, index)
        expected = predict_nqc(
            expanded_list, expanded, spec.effective_m, index
        ) - predict_nqc(base, q, spec.effective_m, index)
        assert self._weights(index, q, [w]) == {w: twqp_weight(expected)}

    def test_base_quality_shortcut_is_exact(self):
        # the base quality is predicted once per query and reused for every
        # candidate: a term's weight does not depend on the others weighed
        index, q, _ = self._setup()
        vocabulary = index.vocabulary[:6]
        together = self._weights(index, q, vocabulary)
        assert together == {w: self._weights(index, q, [w])[w] for w in vocabulary}

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        index=corpora(),
        terms=st.lists(st.sampled_from(VOCAB + (UNINDEXED,)), min_size=1, max_size=4),
        w=st.sampled_from(VOCAB + (UNINDEXED,)),
        k=st.integers(1, 15),
        mu=POSITIVE_MUS,
    )
    def test_expanded_list_is_never_shorter(self, index, terms, w, k, mu):
        # q+w is a bag union, so its candidates hold every document of q's
        # list: a non-empty base never meets an empty expanded list
        q = Query("q", tuple(terms))
        assert len(retrieve_topk(expand_query(q, w), k, mu, index)) >= len(
            retrieve_topk(q, k, mu, index)
        )


class TestScoreRatioOverflow:
    # d2 is long and holds "a" once, so the base and both expanded lists have
    # first-to-last gaps above 700 nats and every ScoreRatio reads inf.
    def _setup(self):
        docs = [Document("d1", "a " * 50), Document("d2", "a " + "z " * 5000)]
        index = build_index(docs, PLAIN)
        q = Query("q", ("a",) * 100)
        return index, q, retrieve_topk(q, 1000, 10, index)

    def test_fixture_overflows_every_ratio(self):
        index, q, base = self._setup()
        for terms in (q.terms, q.terms + ("a",), q.terms + ("z",)):
            assert predict_score_ratio(retrieve_topk(Query("q", terms), 1000, 10, index)) == math.inf

    def _weights(self, index, q):
        method = WeightingMethod.TWQP_SCORE_RATIO
        memo = LogProbMemo(10, index)
        return weigh_queries([(q, ["a", "z"])], [method], CONFIG, memo)[0][method]

    def test_weights_follow_the_sign_of_the_gap_change(self):
        index, q, base = self._setup()
        weights = self._weights(index, q)
        expected = {}
        for w in ("a", "z"):
            change = score_gap(retrieve_topk(expand_query(q, w), 1000, 10, index)) - score_gap(base)
            expected[w] = 1.0 if change > 0 else 0.0 if change < 0 else 0.5
        assert weights == expected == {"a": 1.0, "z": 0.0}

    def test_equal_gaps_give_half(self, monkeypatch):
        # every list is the base list, so both gaps are equal: delta 0
        index, q, base = self._setup()
        monkeypatch.setattr(twqp.weighting, "retrieve_topk", lambda *a, **kw: base)
        assert self._weights(index, q) == {"a": 0.5, "z": 0.5}


class TestUnindexedCandidate:
    def test_score_ratio_names_the_cause(self):
        # every (a,)+b score holds log p(b) = -inf at mu > 0: no gap exists
        index = build_index([Document("d1", "a c")], PLAIN)
        method = WeightingMethod.TWQP_SCORE_RATIO
        with pytest.raises(ValueError, match="top score is -inf: a query term is in no document"):
            weigh_queries([(Query("q", ("a",)), ["b"])], [method], CONFIG, LogProbMemo(1, index))


class TestRetrievalBudget:
    """Count retrievals through the patchable module-level name."""

    def _counting(self, monkeypatch):
        calls = []
        real = twqp.retrieval.retrieve_topk

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
        return calls

    def _setup(self):
        rng = np.random.default_rng(97)
        index = build_index(make_random_corpus(rng, 30), PLAIN)
        q = Query("q0", (index.vocabulary[0], index.vocabulary[1]))
        vocabulary = index.vocabulary[2:9]
        return index, q, vocabulary

    def test_twqp_costs_one_plus_vocab(self, monkeypatch):
        index, q, vocabulary = self._setup()
        config = ExperimentConfig(k=100)
        for method in (
            WeightingMethod.TWQP_WIG,
            WeightingMethod.TWQP_NQC,
            WeightingMethod.TWQP_SCORE_RATIO,
        ):
            calls = self._counting(monkeypatch)
            weigh_terms(q, vocabulary, method, 500.0, config, index)
            assert len(calls) == 1 + len(vocabulary)

    def test_nwig_costs_one(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(q, vocabulary, WeightingMethod.NWIG, 500.0, CONFIG, index)
        assert len(calls) == 1

    def test_score_ratio_costs_vocab(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(
            q, vocabulary, WeightingMethod.SCORE_RATIO_NORM, 500.0, CONFIG, index
        )
        assert len(calls) == len(vocabulary)

    def test_sror_costs_one_plus_distinct_terms(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(q, vocabulary, WeightingMethod.SROR, 500.0, CONFIG, index)
        assert len(calls) == 1 + len(set(q.terms))


class TestWeighTerms:
    def test_twqp_nqc_end_to_end_oracle(self):
        """Recompute one weight through every stage independently."""
        rng = np.random.default_rng(101)
        index = build_index(make_random_corpus(rng, 20), PLAIN)
        q = Query("q0", (index.vocabulary[0],))
        w = index.vocabulary[1]
        mu, k, m = 300.0, 50, 10

        base = retrieve_topk(q, k, mu, index)
        expanded = expand_query(q, w)
        expanded_list = retrieve_topk(expanded, k, mu, index)
        delta = predict_nqc(expanded_list, expanded, m, index) - predict_nqc(
            base, q, m, index
        )
        expected = 1.0 / (1.0 + math.exp(-delta))

        weights = weigh_terms(
            q, [w], WeightingMethod.TWQP_NQC,
            mu, ExperimentConfig(k=k, qpp_m=m), index,
        )
        assert abs(weights[w] - expected) < 1e-12

    def test_score_ratio_weights_sum_normalized(self):
        rng = np.random.default_rng(103)
        index = build_index(make_random_corpus(rng, 20), PLAIN)
        q = Query("q0", (index.vocabulary[0],))
        vocabulary = index.vocabulary[1:5]
        config = ExperimentConfig(k=50)
        weights = weigh_terms(q, vocabulary, WeightingMethod.SCORE_RATIO_NORM, 200.0, config, index)
        raw = {
            w: predict_score_ratio(retrieve_topk(Query("q0", (w,)), 50, 200.0, index))
            for w in vocabulary
        }
        total = sum(raw.values())
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        for w in vocabulary:
            assert abs(weights[w] - raw[w] / total) < 1e-12

    def test_score_ratio_normaliser_adds_in_rank_order(self):
        # The normaliser adds the candidates' ratios one at a time from 0.0
        # in the order given, the RM3 model's rank order.  On this reversed
        # vocabulary that sum and the sum by name differ in the last bit,
        # so every weight is pinned bit for bit.
        rng = np.random.default_rng(103)
        index = build_index(make_random_corpus(rng, 20), PLAIN)
        q = Query("q0", (index.vocabulary[0],))
        vocabulary = index.vocabulary[1:][::-1]
        config, memo = ExperimentConfig(k=50), LogProbMemo(200.0, index)
        raw = [
            predict_score_ratio(retrieve_topk(Query("q0", (w,)), 50, 200.0, index))
            for w in vocabulary
        ]
        in_order, by_name = 0.0, 0.0
        for ratio in raw:
            in_order += ratio
        for _, ratio in sorted(zip(vocabulary, raw)):
            by_name += ratio
        assert in_order != by_name
        method = WeightingMethod.SCORE_RATIO_NORM
        (weighed,) = weigh_queries([(q, vocabulary)], (method,), config, memo)
        assert list(weighed[method].items()) == [
            (w, ratio / in_order) for w, ratio in zip(vocabulary, raw)
        ]

    def test_sror_ignores_vocabulary(self, fruit_index):
        q = Query("q0", ("apple", "banana"))
        weights = weigh_terms(
            q, ["cherry"], WeightingMethod.SROR, 10.0, CONFIG, fruit_index
        )
        assert set(weights) == {"apple", "banana"}

    def test_sror_single_term_query(self, fruit_index):
        q = Query("q0", ("apple",))
        weights = weigh_terms(q, [], WeightingMethod.SROR, 10.0, CONFIG, fruit_index)
        assert weights == {"apple": 1.0}

    def test_empty_vocabulary_rejected(self, fruit_index):
        q = Query("q0", ("apple",))
        with pytest.raises(ValueError, match="vocabulary"):
            weigh_terms(q, [], WeightingMethod.TWQP_NQC, 10.0, CONFIG, fruit_index)

    def test_unmatched_query_rejected(self, fruit_index):
        q = Query("q0", ("zzz",))
        with pytest.raises(ValueError, match="retrieved nothing"):
            weigh_terms(
                q, ["apple"], WeightingMethod.TWQP_NQC, 10.0, CONFIG, fruit_index
            )

    def test_method_parsing(self):
        assert WeightingMethod.from_string("twqp(nqc)") is WeightingMethod.TWQP_NQC
        assert WeightingMethod.from_string("SROR") is WeightingMethod.SROR
        assert WeightingMethod.from_string("ScoreRatio") is WeightingMethod.SCORE_RATIO_NORM
        with pytest.raises(ValueError):
            WeightingMethod.from_string("bm25")

    def test_weights_in_unit_interval_on_real_pipeline(self):
        rng = np.random.default_rng(107)
        index = build_index(make_random_corpus(rng, 40), PLAIN)
        q = random_query(rng, index, max_terms=2)
        base = retrieve_topk(q, 100, 400.0, index)
        if not base.entries:
            pytest.skip("query matched nothing")
        rm = build_rm3(q, base, min(5, len(base.entries)), 400.0, 0.9, index, n=15)
        vocabulary = list(rm)
        for method in (WeightingMethod.TWQP_WIG, WeightingMethod.TWQP_NQC):
            weights = weigh_terms(
                q, vocabulary, method, 400.0, ExperimentConfig(k=100), index
            )
            assert set(weights) == set(vocabulary)
            for value in weights.values():
                assert 0.0 < value < 1.0


class TestWeighQueriesRanges:
    """Every method's weights stay in its documented range on small random
    corpora of at least two indexed terms, so that no collection
    probability is 1 (where NQC's denominator is 0).  An unindexed
    candidate, which no RM3 model yields, is weighed by the baselines and
    TWQP(WIG), which skips it; TWQP(NQC) rejects it as out of vocabulary,
    and TWQP(ScoreRatio) rejects its q+w list, where every score is -inf."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_weights_in_range(self, index, mu, data):
        assume(len(index.vocabulary) >= 2)
        unindexed = data.draw(st.booleans())
        candidates = index.vocabulary + [UNINDEXED] * unindexed
        pairs = []
        for query_id in ("q1", "q2"):
            terms = st.lists(st.sampled_from(index.vocabulary), min_size=1, max_size=3)
            vocabulary = st.lists(st.sampled_from(candidates), min_size=1, max_size=6)
            pairs.append((Query(query_id, tuple(data.draw(terms))), data.draw(vocabulary)))
        methods = list(WeightingMethod)
        if any(UNINDEXED in vocabulary for _, vocabulary in pairs):
            for method, message in (
                (WeightingMethod.TWQP_NQC, f"NQC: query term {UNINDEXED!r} out of vocabulary"),
                (WeightingMethod.TWQP_SCORE_RATIO, "top score is -inf"),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    with pytest.raises(ValueError, match=message):
                        weigh_queries(pairs, [method], ExperimentConfig(), LogProbMemo(mu, index))
                methods.remove(method)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            weighed = weigh_queries(pairs, methods, ExperimentConfig(), LogProbMemo(mu, index))
        zero_tables = sum("all candidate retrievals empty" in str(w.message) for w in caught)
        for (q, vocabulary), by_method in zip(pairs, weighed):
            for method, term_weights in by_method.items():
                weights = list(term_weights.values())
                if method is WeightingMethod.SROR:
                    assert set(term_weights) == set(q.terms)
                else:
                    assert list(term_weights) == list(dict.fromkeys(vocabulary))
                if method in (WeightingMethod.SROR, *TWQP_METHODS):
                    assert all(0.0 <= v <= 1.0 for v in weights)  # NaN fails too
                elif method is WeightingMethod.NWIG:
                    assert all(math.isfinite(v) for v in weights)
                elif sum(weights) == 0.0:
                    assert weights == [0.0] * len(weights)
                    zero_tables -= 1
                else:
                    assert all(v >= 0.0 for v in weights)
                    assert math.isclose(math.fsum(weights), 1.0, rel_tol=1e-12)
        assert zero_tables == 0  # one warning per all-zero ScoreRatio table


class TestDump:
    def test_format(self):
        rows = [("q1", "SROR", {"b": 0.5, "a": 1.0}), ("q2", "TWQP(NQC)", {"x": 2.0})]
        buf = io.StringIO()
        dump_weight_tables(rows, buf)
        assert buf.getvalue() == (
            "q1 SROR a 1.00000000\nq1 SROR b 0.50000000\nq2 TWQP(NQC) x 2.00000000\n"
        )

    def test_to_path(self, tmp_path):
        path = tmp_path / "w.txt"
        dump_weight_tables([("q1", "nWIG", {"a": 0.25})], path)
        assert path.read_text(encoding="utf-8") == "q1 nWIG a 0.25000000\n"
