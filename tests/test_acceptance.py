"""Top-level acceptance checks for the whole pipeline.

Each test prints one pass/fail line; run `pytest -s tests/test_acceptance.py`
to see them.  Tolerances are part of the contract and must not be loosened.
"""

import contextlib
import math
import time
from collections import Counter

import mpmath
import numpy as np
import pytest

import twqp.retrieval
import twqp.weighting
from twqp.analysis import AnalyzerConfig
from twqp.config import ExperimentConfig
from twqp.evaluation import (
    Qrels,
    average_precision,
    paired_ttest,
    precision_at,
    reciprocal_rank,
    robustness_index,
)
from twqp.experiment import run_experiment
from twqp.index import Document, build_index
from twqp.qpp import (
    PredictorKind,
    PredictorSpec,
    predict_nqc,
    predict_quality,
    wig_batch,
)
from twqp.relevance import build_rm3
from twqp.rerank import rerank_many
from twqp.retrieval import LogProbMemo, Query, RankedList, expand_query, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod, sror_term, twqp_weight, weigh_terms

from conftest import PLAIN, make_random_corpus, random_query
from oracle import indicator_weights


@contextlib.contextmanager
def _criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _exhaustive_topk(q, k, mu, index):
    """Score every matching document directly from the index statistics."""
    counts = sorted(Counter(q.terms).items())
    # term -> {doc number: tf}, from each term's postings arrays
    tf = {w: dict(zip(*(a.tolist() for a in index.term(w)))) for w, _ in counts}
    scored = []
    for n in set().union(*tf.values()):
        s = math.fsum(
            c
            * math.log(
                (tf[w].get(n, 0) + mu * index.collection_tf[w] / index.total_tokens)
                / (int(index.lengths[n]) + mu)
            )
            for w, c in counts
        )
        scored.append((index.doc_ids[n], s))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


class TestAcceptance:
    def test_criterion_1_retrieval_oracle_equivalence(self):
        with _criterion(1, "retrieval oracle equivalence"):
            rng = np.random.default_rng(202)
            start = time.perf_counter()
            for _ in range(10):
                n_docs = int(rng.integers(50, 501))
                docs = make_random_corpus(rng, n_docs, vocab_size=120, max_len=60)
                index = build_index(docs, PLAIN)
                for _ in range(3):
                    q = random_query(rng, index, max_terms=4)
                    mu = float(rng.integers(100, 4000))
                    k = int(rng.integers(10, 200))
                    got = retrieve_topk(q, k, mu, index)
                    expected = _exhaustive_topk(q, k, mu, index)
                    assert got.doc_ids == [d for d, _ in expected]
                    for (_, score), (_, want) in zip(got.entries, expected):
                        assert abs(score - want) <= 1e-10
            assert time.perf_counter() - start < 10.0

    def test_criterion_2_indicator_reduction(self):
        with _criterion(2, "query-indicator weight reduction"):
            rng = np.random.default_rng(7)
            checked = 0
            while checked < 50:
                docs = make_random_corpus(rng, int(rng.integers(20, 80)))
                index = build_index(docs, PLAIN)
                for _ in range(5):
                    q = random_query(
                        rng, index, query_id=f"q{checked}", max_terms=5, allow_duplicates=True
                    )
                    mu = float(rng.integers(50, 2500))
                    base = retrieve_topk(q, 400, mu, index)
                    config = ExperimentConfig(k=400, rerank_depth=400)
                    memo = LogProbMemo(mu, index)
                    rr = rerank_many(base, [indicator_weights(q)], config, memo)[0]
                    assert rr.entries == base.entries
                    checked += 1

    def test_criterion_3_rm3_normalization_and_linearity(self):
        with _criterion(3, "RM3 normalization and linearity"):
            rng = np.random.default_rng(19)
            draws = 0
            while draws < 100:
                docs = make_random_corpus(rng, int(rng.integers(15, 60)))
                index = build_index(docs, PLAIN)
                for _ in range(10):
                    if draws >= 100:
                        break
                    q = random_query(rng, index, max_terms=3)
                    base = retrieve_topk(q, 100, 800.0, index)
                    if not base.entries:
                        continue
                    m = int(rng.integers(1, len(base.entries) + 1))
                    lam = float(rng.uniform(0.0, 1.0))
                    rm = build_rm3(q, base, m, 900.0, lam, index)
                    assert abs(math.fsum(rm.values()) - 1.0) <= 1e-9
                    ones = build_rm3(q, base, m, 900.0, 1.0, index)
                    zeros = build_rm3(q, base, m, 900.0, 0.0, index)
                    assert set(rm) == set(ones) == set(zeros)
                    for w, p in rm.items():
                        mix = lam * ones[w] + (1.0 - lam) * zeros[w]
                        assert abs(p - mix) <= 1e-12
                    draws += 1

    def test_criterion_4_sigmoid_fixed_points(self):
        with _criterion(4, "sigmoid fixed points and monotonicity"):
            assert twqp_weight(0.0) == 0.5
            assert abs(twqp_weight(math.log(3.0)) - 0.75) <= 1e-12
            grid = np.linspace(-30.0, 30.0, 1000)
            values = [twqp_weight(float(x)) for x in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_criterion_5_predictor_analytic_zeros(self):
        with _criterion(5, "predictor analytic zeros"):
            # NQC: no score spread
            fruit = build_index(
                [Document("d1", "apple banana apple"), Document("d2", "banana cherry")],
                PLAIN,
            )
            flat = RankedList("q1", (("d1", -1.25), ("d2", -1.25)))
            assert predict_nqc(flat, Query("q1", ("banana",)), 150, fruit) == 0.0

            # WIG: document model equal to the collection model; the smoothed
            # probability (1 + mu/2) / (2 + mu) is exactly 0.5 in binary
            uniform = build_index([Document("d1", "apple banana")], PLAIN)
            q = Query("q1", ("apple",))
            lst = retrieve_topk(q, 10, 100.0, uniform)
            assert wig_batch([lst], [q], 5, LogProbMemo(100.0, uniform))[0] == 0.0
            clones = build_index(
                [Document(f"d{i}", "apple banana") for i in range(4)], PLAIN
            )
            lst4 = retrieve_topk(q, 10, 200.0, clones)
            assert wig_batch([lst4], [q], 5, LogProbMemo(200.0, clones))[0] == 0.0

            # SROR: dropping a duplicate occurrence keeps the list identical;
            # at depth 2 the reduced query's matches are disjoint
            twice = Query("q1", ("banana", "banana"))
            memo = LogProbMemo(10.0, fruit)
            base = retrieve_topk(twice, 10, 10.0, fruit, memo)
            assert sror_term("banana", twice, 10, memo, base) == 0.0
            ab = build_index(
                [
                    Document("a1", "alpha alpha alpha alpha alpha"),
                    Document("a2", "alpha alpha alpha alpha alpha"),
                    Document("b1", "beta beta beta beta beta"),
                    Document("b2", "beta beta beta beta beta"),
                ],
                PLAIN,
            )
            ab_query = Query("q1", ("alpha", "beta"))
            memo = LogProbMemo(100.0, ab)
            base = retrieve_topk(ab_query, 2, 100.0, ab, memo)
            assert sror_term("alpha", ab_query, 2, memo, base) == 1.0

    def test_criterion_6_evaluation_fixture(self):
        with _criterion(6, "evaluation fixtures and t-test oracle"):
            qrels = Qrels({"q1": {"d1": 1, "d3": 1}})
            run = RankedList("q1", (("d1", -1.0), ("d2", -2.0), ("d3", -3.0)))
            assert abs(average_precision(run, qrels) - 0.833333) <= 1e-6

            ten = Qrels({"q1": {"d1": 1, "d5": 1, "d9": 1}})
            twelve = RankedList("q1", tuple((f"d{i}", float(-i)) for i in range(1, 13)))
            assert precision_at(twelve, ten, 10) == 0.3
            short = RankedList("q1", (("d1", -1.0), ("d5", -2.0)))
            assert precision_at(short, ten, 10) == 0.2
            assert precision_at(RankedList("q1", ()), ten, 10) == 0.0

            fourth = Qrels({"q1": {"d4": 1}})
            four = RankedList("q1", tuple((f"d{i}", float(-i)) for i in range(1, 5)))
            assert reciprocal_rank(four, fourth) == 0.25
            assert reciprocal_rank(four, Qrels({"q1": {"d1": 1}})) == 1.0
            assert reciprocal_rank(four, Qrels({"q1": {"d9": 1}})) == 0.0

            assert robustness_index(
                [0.5, 0.6, 0.7, 0.1, 0.4], [0.4, 0.5, 0.6, 0.3, 0.4]
            ) == pytest.approx(0.4)
            assert robustness_index([0.2, 0.3], [0.2, 0.3]) == 0.0
            assert robustness_index([0.5, 0.5], [0.1, 0.2]) == 1.0

            frozen = paired_ttest(
                [3.0, 0.0, 4.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0]
            )
            assert abs(frozen - 0.23019964108049898) <= 1e-6

            rng = np.random.default_rng(61)
            checked = 0
            while checked < 20:
                n = int(rng.integers(3, 15))
                a = rng.normal(0.2, 1.0, size=n)
                b = rng.normal(0.0, 1.0, size=n)
                diffs = a - b
                sd = float(diffs.std(ddof=1))
                if sd == 0.0:
                    continue
                t = float(diffs.mean()) / (sd / math.sqrt(n))
                df = n - 1
                x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                expected = float(
                    mpmath.betainc(
                        mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True
                    )
                )
                assert abs(paired_ttest(list(a), list(b)) - expected) <= 1e-6
                checked += 1

    def test_criterion_7_pipeline_determinism(self, tmp_path):
        with _criterion(7, "pipeline determinism"):
            coll = make_synthetic(32)  # 200 docs, 800 terms, 20 queries
            paths = write_collection(coll, tmp_path / "data")
            for name in ("run1", "run2"):
                config = ExperimentConfig(
                    corpus=str(paths["corpus"]),
                    topics=str(paths["topics"]),
                    qrels=str(paths["qrels"]),
                    output_dir=str(tmp_path / name),
                )
                start = time.perf_counter()
                run_experiment(config)
                assert time.perf_counter() - start < 60.0
            one = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
            two = sorted(p for p in (tmp_path / "run2").rglob("*") if p.is_file())
            assert [p.relative_to(tmp_path / "run1") for p in one] == [
                p.relative_to(tmp_path / "run2") for p in two
            ]
            assert one, "experiment wrote no files"
            for p1, p2 in zip(one, two):
                assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_criterion_8_retrieval_budget(self, monkeypatch):
        with _criterion(8, "retrieval-count budget"):
            rng = np.random.default_rng(83)
            index = build_index(make_random_corpus(rng, 40), PLAIN)
            q = random_query(rng, index, max_terms=2)
            vocabulary = index.vocabulary[:7]
            calls = []
            real = twqp.retrieval.retrieve_topk

            def counted(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(twqp.weighting, "retrieve_topk", counted)
            for method in (
                WeightingMethod.TWQP_NQC,
                WeightingMethod.TWQP_WIG,
                WeightingMethod.TWQP_SCORE_RATIO,
            ):
                calls.clear()
                weigh_terms(q, vocabulary, method, 800.0, ExperimentConfig(), index)
                assert len(calls) == 1 + len(vocabulary)

    def test_criterion_9_directional_sanity(self):
        with _criterion(9, "directional term-quality sanity"):
            coll = make_synthetic(32, n_docs=300, vocab_size=800, n_queries=30)
            index = build_index(coll.documents, AnalyzerConfig())
            spec = PredictorSpec(PredictorKind.NQC)
            mu, k = 1000.0, 1000
            wins = 0
            total = 0
            for qid, title in coll.topics:
                q = Query(qid, tuple(title.split()))
                memo = LogProbMemo(mu, index)
                base = retrieve_topk(q, k, mu, index, memo)
                base_quality = predict_quality(spec, base, q, memo)

                def delta(w):
                    expanded = expand_query(q, w)
                    expanded_list = retrieve_topk(expanded, k, mu, index, memo)
                    return predict_quality(spec, expanded_list, expanded, memo) - base_quality

                plant = coll.plants[qid]
                on = [delta(w) for w in plant.on_topic]
                off = [delta(w) for w in plant.off_topic]
                if sum(on) / len(on) > sum(off) / len(off):
                    wins += 1
                total += 1
            assert total == 30
            p = sum(math.comb(total, i) for i in range(wins, total + 1)) / 2.0**total
            assert p < 0.05
