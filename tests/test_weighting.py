"""Sigmoid term weights, quality deltas, retrieval budget, baseline weighters."""

import io
import math

import numpy as np
import pytest

import twqp.qpp
import twqp.retrieval
import twqp.weighting
from twqp.index import Document, build_index
from twqp.qpp import PredictorKind, PredictorSpec, predict_nqc, predict_score_ratio, score_gap
from twqp.relevance import build_rm3, top_n_terms
from twqp.retrieval import Query, RankedList, expand_query, retrieve_topk
from twqp.weighting import (
    TermWeightTable,
    WeightingMethod,
    WeightingParams,
    delta_p,
    dump_weight_tables,
    query_indicator_table,
    twqp_weight,
    weigh_terms,
)

from conftest import PLAIN, make_random_corpus, random_query


class TestWeightingParams:
    @pytest.mark.parametrize("mu", [0, 0.0, -1.0])
    def test_non_positive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="weighting requires mu > 0"):
            WeightingParams(mu=mu)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            WeightingParams(mu=10.0, k=0)

    def test_smallest_valid_values_accepted(self):
        assert WeightingParams(mu=1e-9, k=1).k == 1


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
    def _setup(self, seed=89):
        rng = np.random.default_rng(seed)
        index = build_index(make_random_corpus(rng, 25), PLAIN)
        q = random_query(rng, index, max_terms=2)
        base = retrieve_topk(q, 1000, 500.0, index)
        return index, q, base

    def test_equals_manual_difference(self):
        index, q, base = self._setup()
        spec = PredictorSpec(PredictorKind.NQC)
        w = index.vocabulary[0]
        expanded = expand_query(q, w)
        expanded_list = retrieve_topk(expanded, 1000, 500.0, index)
        expected = predict_nqc(
            expanded_list, expanded, spec.effective_m, index
        ) - predict_nqc(base, q, spec.effective_m, index)
        assert delta_p(w, q, base, spec, 1000, 500.0, index) == expected

    def test_base_quality_shortcut_is_exact(self):
        index, q, base = self._setup()
        spec = PredictorSpec(PredictorKind.NQC)
        base_quality = predict_nqc(base, q, spec.effective_m, index)
        w = index.vocabulary[1]
        assert delta_p(w, q, base, spec, 1000, 500.0, index) == delta_p(
            w, q, base, spec, 1000, 500.0, index, base_quality=base_quality
        )

    def test_empty_expansion_scores_predictor_minimum(self, monkeypatch, fruit_index):
        q = Query("q1", ("apple",))
        base = retrieve_topk(q, 10, 10.0, fruit_index)
        spec = PredictorSpec(PredictorKind.SCORE_RATIO)
        base_quality = predict_score_ratio(base)
        monkeypatch.setattr(
            twqp.weighting,
            "retrieve_topk",
            lambda *a, **kw: RankedList("q1", (), 10),
        )
        got = delta_p("banana", q, base, spec, 10, 10.0, fruit_index)
        assert got == 1.0 - base_quality


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

    def test_weights_follow_the_sign_of_the_gap_change(self):
        index, q, base = self._setup()
        table = weigh_terms(
            q, ["a", "z"], WeightingMethod.TWQP_SCORE_RATIO, WeightingParams(mu=10), index
        )
        expected = {}
        for w in ("a", "z"):
            change = score_gap(retrieve_topk(expand_query(q, w), 1000, 10, index)) - score_gap(base)
            expected[w] = 1.0 if change > 0 else 0.0 if change < 0 else 0.5
        assert table.weights == expected == {"a": 1.0, "z": 0.0}

    def test_equal_gaps_give_half(self, monkeypatch):
        index, q, base = self._setup()
        spec = PredictorSpec(PredictorKind.SCORE_RATIO)
        monkeypatch.setattr(twqp.weighting, "retrieve_topk", lambda *a, **kw: base)
        delta = delta_p("a", q, base, spec, 1000, 10, index)
        assert delta == 0.0 and twqp_weight(delta) == 0.5


class TestRetrievalBudget:
    """Count retrievals through the patchable module-level name."""

    def _counting(self, monkeypatch):
        # SROR issues its reduced-query retrievals from the predictor module,
        # so both module-level names are wrapped.
        calls = []
        real = twqp.retrieval.retrieve_topk

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
        monkeypatch.setattr(twqp.qpp, "retrieve_topk", counted)
        return calls

    def _setup(self):
        rng = np.random.default_rng(97)
        index = build_index(make_random_corpus(rng, 30), PLAIN)
        q = Query("q0", (index.vocabulary[0], index.vocabulary[1]))
        vocabulary = index.vocabulary[2:9]
        return index, q, vocabulary

    def test_twqp_costs_one_plus_vocab(self, monkeypatch):
        index, q, vocabulary = self._setup()
        params = WeightingParams(mu=500.0, k=100)
        for method in (
            WeightingMethod.TWQP_WIG,
            WeightingMethod.TWQP_NQC,
            WeightingMethod.TWQP_SCORE_RATIO,
        ):
            calls = self._counting(monkeypatch)
            weigh_terms(q, vocabulary, method, params, index)
            assert len(calls) == 1 + len(vocabulary)

    def test_nwig_costs_one(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(q, vocabulary, WeightingMethod.NWIG, WeightingParams(mu=500.0), index)
        assert len(calls) == 1

    def test_score_ratio_costs_vocab(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(
            q, vocabulary, WeightingMethod.SCORE_RATIO_NORM, WeightingParams(mu=500.0), index
        )
        assert len(calls) == len(vocabulary)

    def test_sror_costs_one_plus_distinct_terms(self, monkeypatch):
        index, q, vocabulary = self._setup()
        calls = self._counting(monkeypatch)
        weigh_terms(q, vocabulary, WeightingMethod.SROR, WeightingParams(mu=500.0), index)
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

        table = weigh_terms(
            q, [w], WeightingMethod.TWQP_NQC,
            WeightingParams(mu=mu, k=k, predictor_m=m), index,
        )
        assert abs(table.weights[w] - expected) < 1e-12
        assert table.method is WeightingMethod.TWQP_NQC
        assert table.query_id == "q0"

    def test_score_ratio_weights_sum_normalized(self):
        rng = np.random.default_rng(103)
        index = build_index(make_random_corpus(rng, 20), PLAIN)
        q = Query("q0", (index.vocabulary[0],))
        vocabulary = index.vocabulary[1:5]
        params = WeightingParams(mu=200.0, k=50)
        table = weigh_terms(q, vocabulary, WeightingMethod.SCORE_RATIO_NORM, params, index)
        raw = {
            w: predict_score_ratio(retrieve_topk(Query("q0", (w,)), 50, 200.0, index))
            for w in vocabulary
        }
        total = sum(raw.values())
        assert abs(sum(table.weights.values()) - 1.0) < 1e-12
        for w in vocabulary:
            assert abs(table.weights[w] - raw[w] / total) < 1e-12

    def test_sror_ignores_vocabulary(self, fruit_index):
        q = Query("q0", ("apple", "banana"))
        table = weigh_terms(
            q, ["cherry"], WeightingMethod.SROR, WeightingParams(mu=10.0), fruit_index
        )
        assert set(table.weights) == {"apple", "banana"}

    def test_sror_single_term_query(self, fruit_index):
        q = Query("q0", ("apple",))
        table = weigh_terms(q, [], WeightingMethod.SROR, WeightingParams(mu=10.0), fruit_index)
        assert table.weights == {"apple": 1.0}

    def test_empty_vocabulary_rejected(self, fruit_index):
        q = Query("q0", ("apple",))
        with pytest.raises(ValueError, match="vocabulary"):
            weigh_terms(q, [], WeightingMethod.TWQP_NQC, WeightingParams(mu=10.0), fruit_index)

    def test_unmatched_query_rejected(self, fruit_index):
        q = Query("q0", ("zzz",))
        with pytest.raises(ValueError, match="retrieved nothing"):
            weigh_terms(
                q, ["apple"], WeightingMethod.TWQP_NQC, WeightingParams(mu=10.0), fruit_index
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
        rm = build_rm3(q, base, min(5, len(base.entries)), 400.0, 0.9, index)
        vocabulary = top_n_terms(rm, 15)
        for method in (WeightingMethod.TWQP_WIG, WeightingMethod.TWQP_NQC):
            table = weigh_terms(
                q, vocabulary, method, WeightingParams(mu=400.0, k=100), index
            )
            assert set(table.weights) == set(vocabulary)
            for value in table.weights.values():
                assert 0.0 < value < 1.0


class TestIndicatorTable:
    def test_counts_as_weights(self):
        q = Query("q1", ("b", "a", "b"))
        table = query_indicator_table(q)
        assert table.weights == {"a": 1.0, "b": 2.0}
        assert table.method is None
        assert table.method_label == "indicator"


class TestDump:
    def test_format(self):
        tables = [
            TermWeightTable("q1", WeightingMethod.SROR, {"b": 0.5, "a": 1.0}),
            TermWeightTable("q2", None, {"x": 2.0}),
        ]
        buf = io.StringIO()
        dump_weight_tables(tables, buf)
        assert buf.getvalue() == (
            "q1 SROR a 1.00000000\nq1 SROR b 0.50000000\nq2 indicator x 2.00000000\n"
        )

    def test_to_path(self, tmp_path):
        path = tmp_path / "w.txt"
        dump_weight_tables([TermWeightTable("q1", None, {"a": 0.25})], path)
        assert path.read_text(encoding="utf-8") == "q1 indicator a 0.25000000\n"
