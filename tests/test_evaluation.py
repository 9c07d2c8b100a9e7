"""Effectiveness measures, significance, report assembly, parameter sweeps."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twqp.evaluation
from twqp.config import ExperimentConfig
from twqp.evaluation import (
    Qrels,
    average_precision,
    build_report,
    load_qrels,
    load_topics,
    paired_ttest,
    precision_at,
    reciprocal_rank,
    robustness_index,
    tune_mu,
    tune_rm3_m,
)
from twqp.index import Document, build_index
from twqp.retrieval import Query, RankedList, retrieve_topk

from conftest import PLAIN
from oracle import scalar_average_precision, scalar_precision_at, scalar_reciprocal_rank


def _run(query_id, doc_ids, k=1000):
    entries = tuple((d, float(-i)) for i, d in enumerate(doc_ids))
    return RankedList(query_id, entries, k)


class TestLoaders:
    def test_load_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\n\nq2 0 d9 2\n")
        qrels = load_qrels(path)
        assert qrels.is_relevant("q1", "d1")
        assert not qrels.is_relevant("q1", "d2")
        assert qrels.grade("q2", "d9") == 2
        assert qrels.relevant_count("q1") == 1
        assert qrels.query_ids == ["q1", "q2"]

    def test_load_qrels_unjudged_defaults_to_zero(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\n")
        qrels = load_qrels(path)
        assert qrels.grade("q1", "nope") == 0
        assert qrels.grade("q9", "d1") == 0

    def test_load_qrels_malformed_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 d2 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_qrels(path)

    def test_load_qrels_duplicate_judgment(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_qrels(path)

    def test_load_topics(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tfirst title\n\nq2\tsecond\ttab stays\n")
        assert load_topics(path) == [("q1", "first title"), ("q2", "second\ttab stays")]

    def test_load_topics_missing_tab(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1 no tab here\n")
        with pytest.raises(ValueError, match="line 1"):
            load_topics(path)


class TestPrecisionAt:
    def test_three_of_ten(self):
        qrels = Qrels({"q1": {"d1": 1, "d5": 1, "d9": 1}})
        run = _run("q1", [f"d{i}" for i in range(1, 13)])
        assert precision_at(run, qrels, 10) == 0.3

    def test_short_run_keeps_cutoff_denominator(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 1}})
        run = _run("q1", ["d1", "d2"])
        assert precision_at(run, qrels, 10) == 0.2

    def test_empty_run(self):
        qrels = Qrels({"q1": {"d1": 1}})
        assert precision_at(_run("q1", []), qrels, 10) == 0.0

    def test_other_cutoffs(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 1, "d3": 1, "d4": 1, "d5": 1}})
        run = _run("q1", ["d1", "d2", "d3", "d4", "d5"])
        assert precision_at(run, qrels, 5) == 1.0
        assert precision_at(run, qrels, 1) == 1.0

    def test_cutoff_below_one_rejected(self):
        qrels = Qrels({"q1": {"d1": 1}})
        with pytest.raises(ValueError, match="cutoff"):
            precision_at(_run("q1", ["d1"]), qrels, 0)


class TestAveragePrecision:
    def test_five_sixths_fixture(self):
        # hits at ranks 1 and 3 with R=2: (1/1 + 2/3) / 2
        qrels = Qrels({"q1": {"d1": 1, "d3": 1}})
        run = _run("q1", ["d1", "d2", "d3"])
        assert average_precision(run, qrels) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_perfect_ranking(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 1}})
        assert average_precision(_run("q1", ["d1", "d2", "d3"]), qrels) == 1.0

    def test_none_retrieved(self):
        qrels = Qrels({"q1": {"d9": 1}})
        assert average_precision(_run("q1", ["d1", "d2"]), qrels) == 0.0

    def test_divides_by_total_relevant(self):
        qrels = Qrels({"q1": {"d1": 1, "d8": 1, "d9": 1}})
        run = _run("q1", ["d1", "d2"])
        assert average_precision(run, qrels) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_relevant_docs_rejected(self):
        qrels = Qrels({"q1": {"d1": 0}})
        with pytest.raises(ValueError, match="q1"):
            average_precision(_run("q1", ["d1"]), qrels)

    def test_depth_truncation(self):
        qrels = Qrels({"q1": {"d3": 1}})
        run = _run("q1", ["d1", "d2", "d3"])
        assert average_precision(run, qrels, depth=2) == 0.0
        assert average_precision(run, qrels, depth=3) == pytest.approx(1.0 / 3.0)

    def test_tail_beyond_last_relevant_is_irrelevant(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 1}})
        a = average_precision(_run("q1", ["d1", "d2", "x", "y", "z"]), qrels)
        b = average_precision(_run("q1", ["d1", "d2", "z", "x", "y"]), qrels)
        assert a == b == 1.0


class TestReciprocalRank:
    def test_rank_four(self):
        qrels = Qrels({"q1": {"d4": 1}})
        assert reciprocal_rank(_run("q1", ["d1", "d2", "d3", "d4"]), qrels) == 0.25

    def test_rank_one(self):
        qrels = Qrels({"q1": {"d1": 1}})
        assert reciprocal_rank(_run("q1", ["d1", "d2"]), qrels) == 1.0

    def test_no_relevant_retrieved(self):
        qrels = Qrels({"q1": {"d9": 1}})
        assert reciprocal_rank(_run("q1", ["d1", "d2"]), qrels) == 0.0

    def test_reads_full_list(self):
        # relevant doc deep in a long list still counts
        ids = [f"d{i}" for i in range(1500)]
        qrels = Qrels({"q1": {"d1499": 1}})
        assert reciprocal_rank(_run("q1", ids), qrels) == 1.0 / 1500.0


ORACLE_DOCS = tuple(f"d{i:02d}" for i in range(12))
# One index over ORACLE_DOCS, for runs held as arrays.
ORACLE_INDEX = build_index([Document(d, "a " * (i + 1)) for i, d in enumerate(ORACLE_DOCS)], PLAIN)


class TestMeasuresOracle:
    """The measures against tests/oracle.py's entry-by-entry loops, with ==."""

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.permutations(ORACLE_DOCS),
        length=st.integers(0, len(ORACLE_DOCS)),
        # grade 2, judged non-relevant (0) and unjudged (absent) documents
        grades=st.dictionaries(st.sampled_from(ORACLE_DOCS), st.sampled_from([0, 1, 2])),
        cutoff=st.integers(1, 15),
        depth=st.integers(1, 15),
        arrays=st.booleans(),
    )
    def test_equal_to_the_entry_loops(self, order, length, grades, cutoff, depth, arrays):
        ids = order[:length]  # runs may be shorter than the cutoff
        if arrays:
            nums = ORACLE_INDEX.doc_numbers(ids)
            scores = -np.arange(length, dtype=float)
            run = RankedList.from_arrays("q1", nums, scores, 1000, ORACLE_INDEX)
        else:
            run = _run("q1", ids)
        qrels = Qrels({"q1": grades, "q2": {"d00": 1}})
        assert precision_at(run, qrels, cutoff) == scalar_precision_at(run, qrels, cutoff)
        if qrels.relevant_count("q1") == 0:
            with pytest.raises(ValueError, match="no relevant documents"):
                average_precision(run, qrels, depth)
            assert reciprocal_rank(run, qrels) == 0.0
            return
        got = average_precision(run, qrels, depth)
        assert got == scalar_average_precision(run, qrels, depth)
        assert average_precision(run, qrels) == scalar_average_precision(run, qrels)
        assert reciprocal_rank(run, qrels) == scalar_reciprocal_rank(run, qrels)


class TestRobustnessIndex:
    def test_mixed_outcomes(self):
        # 3 better, 1 worse, 1 tie over 5 queries
        method = [0.5, 0.6, 0.7, 0.1, 0.4]
        baseline = [0.4, 0.5, 0.6, 0.3, 0.4]
        assert robustness_index(method, baseline) == pytest.approx(0.4)

    def test_all_ties(self):
        assert robustness_index([0.2, 0.3], [0.2, 0.3]) == 0.0

    def test_all_better(self):
        assert robustness_index([0.5, 0.5], [0.1, 0.2]) == 1.0

    def test_all_worse(self):
        assert robustness_index([0.1, 0.2], [0.5, 0.5]) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            robustness_index([0.1], [0.1, 0.2])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            robustness_index([], [])


class TestPairedTtest:
    def test_frozen_five_pair_value(self):
        # differences 2, -1, 3, 0, 1: t = sqrt(2) with 4 df
        a = [3.0, 0.0, 4.0, 1.0, 2.0]
        b = [1.0, 1.0, 1.0, 1.0, 1.0]
        assert paired_ttest(a, b) == pytest.approx(0.23019964108049898, abs=1e-12)

    def test_identical_vectors(self):
        assert paired_ttest([0.4, 0.6, 0.1], [0.4, 0.6, 0.1]) == 1.0

    def test_zero_variance_nonzero_mean(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            p = paired_ttest([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        assert p == 0.0

    def test_symmetry(self):
        a = [0.9, 0.3, 0.5, 0.7]
        b = [0.2, 0.4, 0.4, 0.6]
        assert paired_ttest(a, b) == paired_ttest(b, a)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest([1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            paired_ttest([1.0, 2.0], [1.0])

    def test_against_incomplete_beta_oracle(self):
        # two-tailed p = I_x(df/2, 1/2) at x = df / (df + t^2)
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(4, 12))
            a = rng.normal(0.3, 1.0, size=n)
            b = rng.normal(0.0, 1.0, size=n)
            diffs = a - b
            sd = float(diffs.std(ddof=1))
            if sd == 0.0:
                continue
            t = float(diffs.mean()) / (sd / math.sqrt(n))
            df = n - 1
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            expected = float(
                mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
            )
            got = paired_ttest(list(a), list(b))
            assert got == pytest.approx(expected, abs=1e-12)
            checked += 1
        assert checked >= 15


class TestBuildReport:
    def _fixture(self):
        qrels = Qrels(
            {
                "q1": {"d1": 1, "d3": 1},
                "q2": {"d9": 1},
                "q3": {"d5": 0},
            }
        )
        runs = {
            "A": {
                "q1": _run("q1", ["d1", "d2", "d3"]),
                "q2": _run("q2", ["d9", "d8"]),
                "q3": _run("q3", ["d5"]),
            },
            "B": {
                "q1": _run("q1", ["d2", "d1", "d3"]),
                "q2": _run("q2", ["d8", "d9"]),
                "q3": _run("q3", ["d6"]),
            },
        }
        return runs, qrels

    def test_per_query_measures(self):
        runs, qrels = self._fixture()
        report = build_report(runs, qrels, baseline="A")
        a_q1 = report.per_query["A"]["q1"]
        assert a_q1.p10 == 0.2
        assert a_q1.ap == pytest.approx(5.0 / 6.0)
        assert a_q1.rr == 1.0
        b_q2 = report.per_query["B"]["q2"]
        assert b_q2.ap == 0.5
        assert b_q2.rr == 0.5

    def test_unjudgeable_query_excluded_from_ap_rr(self):
        runs, qrels = self._fixture()
        report = build_report(runs, qrels, baseline="A")
        assert report.excluded == ("q3",)
        assert report.per_query["A"]["q3"].ap is None
        assert report.per_query["A"]["q3"].rr is None
        # p@10 still averages over all three queries
        expected_p10 = (0.2 + 0.1 + 0.0) / 3
        assert report.aggregates["A"]["p10"] == pytest.approx(expected_p10)
        expected_ap = (5.0 / 6.0 + 1.0) / 2
        assert report.aggregates["A"]["ap"] == pytest.approx(expected_ap)
        assert report.aggregates["A"]["rr"] == 1.0

    def test_significance_is_symmetric(self):
        runs, qrels = self._fixture()
        report = build_report(runs, qrels, baseline="A")
        for measure in ("p10", "ap", "rr"):
            table = report.significance[measure]
            assert ("A", "B") in table and ("B", "A") in table
            assert table[("A", "B")] == table[("B", "A")]
            assert 0.0 <= table[("A", "B")] <= 1.0

    def test_robustness_against_baseline(self):
        runs, qrels = self._fixture()
        report = build_report(runs, qrels, baseline="A")
        assert report.ri["A"] == 0.0
        # B ties q1 p@10 (0.2), ties q2 (0.1), ties q3 (0.0)
        assert report.ri["B"] == 0.0
        assert report.baseline == "A"

    def test_missing_baseline_rejected(self):
        runs, qrels = self._fixture()
        with pytest.raises(ValueError, match="baseline"):
            build_report(runs, qrels, baseline="Z")

    def test_mismatched_query_sets_rejected(self):
        runs, qrels = self._fixture()
        del runs["B"]["q3"]
        with pytest.raises(ValueError, match="different query set"):
            build_report(runs, qrels, baseline="A")

    def test_all_queries_unjudgeable_rejected(self):
        qrels = Qrels({"q1": {}})
        runs = {"A": {"q1": _run("q1", ["d1"])}}
        with pytest.raises(ValueError, match="zero relevant"):
            build_report(runs, qrels, baseline="A")


class TestTuneMu:
    def _flip_corpus(self):
        # small mu favors the short non-relevant doc, large mu the long
        # relevant one; total collection mass dilutes the background model
        docs = [
            Document("rel", " ".join(["w", "w"] + ["x"] * 98)),
            Document("non", "w y y y"),
            Document("fill1", " ".join(["x"] * 5000)),
            Document("fill2", " ".join(["x"] * 5000)),
        ]
        index = build_index(docs, PLAIN)
        queries = [Query("q1", ("w",))]
        qrels = Qrels({"q1": {"rel": 1}})
        return index, queries, qrels

    def test_grid_flip(self):
        index, queries, qrels = self._flip_corpus()
        assert tune_mu(queries, qrels, ExperimentConfig(mu_grid=(10.0, 1000.0)), index) == 1000.0

    def test_grid_order_does_not_matter(self):
        index, queries, qrels = self._flip_corpus()
        assert tune_mu(queries, qrels, ExperimentConfig(mu_grid=(1000.0, 10.0)), index) == 1000.0

    def test_tie_takes_smaller_value(self):
        docs = [Document("d1", "w z"), Document("d2", "z z")]
        index = build_index(docs, PLAIN)
        queries = [Query("q1", ("w",))]
        qrels = Qrels({"q1": {"d1": 1}})
        assert tune_mu(queries, qrels, ExperimentConfig(mu_grid=(2000.0, 1000.0)), index) == 1000.0

    def test_empty_grid_rejected(self):
        index, queries, qrels = self._flip_corpus()
        with pytest.raises(ValueError, match="empty mu grid"):
            tune_mu(queries, qrels, ExperimentConfig(mu_grid=()), index)


class TestTuneRM3M:
    def _corpus(self):
        docs = [
            Document("d1", "w a a b"),
            Document("d2", "w a b b"),
            Document("d3", "c c c c"),
        ]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("w",))
        qrels = Qrels({"q1": {"d1": 1, "d2": 1}})
        return index, [(q, retrieve_topk(q, 1000, 1000.0, index))], qrels

    def test_singleton_grid(self):
        index, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, 1000.0, ExperimentConfig(rm3_m_grid=(5,)), index) == 5

    def test_tie_takes_smaller_value(self):
        # both docs are relevant, so every feedback depth gives AP 1.0
        index, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, 1000.0, ExperimentConfig(rm3_m_grid=(5, 10)), index) == 5

    def test_grid_order_does_not_matter(self):
        index, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, 1000.0, ExperimentConfig(rm3_m_grid=(10, 5)), index) == 5

    def test_empty_grid_rejected(self):
        index, lists, qrels = self._corpus()
        with pytest.raises(ValueError, match="empty m grid"):
            tune_rm3_m(lists, qrels, 1000.0, ExperimentConfig(rm3_m_grid=()), index)

    def test_model_comes_from_the_config(self, monkeypatch):
        # the tuned depth fits the RM3 model the experiment then weighs with
        index, lists, qrels = self._corpus()
        seen = []
        real_grid, real_clip = twqp.evaluation.build_rm3_grid, twqp.evaluation.restrict_top_n

        def grid(q, base, depths, mu, lam, index):
            seen.append(("build", mu, lam))
            return real_grid(q, base, depths, mu, lam, index)

        def clip(model, n):
            seen.append(("clip", n))
            return real_clip(model, n)

        monkeypatch.setattr(twqp.evaluation, "build_rm3_grid", grid)
        monkeypatch.setattr(twqp.evaluation, "restrict_top_n", clip)
        config = ExperimentConfig(rm3_m_grid=(5, 10), rm3_mu=250.0, rm3_lambda=0.3, rm3_n=2)
        assert tune_rm3_m(lists, qrels, 1000.0, config, index) == 5
        assert seen == [("build", 250.0, 0.3), ("clip", 2), ("clip", 2)]
