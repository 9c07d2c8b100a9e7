"""Effectiveness measures, significance, report assembly, parameter sweeps."""

import math
import re
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import twqp.evaluation
from twqp.config import ExperimentConfig
from twqp.evaluation import (
    Qrels,
    QueryMeasures,
    average_precision,
    average_precisions,
    build_report,
    load_qrels,
    load_topics,
    paired_ttest,
    precision_at,
    precisions,
    reciprocal_rank,
    reciprocal_ranks,
    robustness_index,
    tune_mu,
    tune_rm3_m,
)
from twqp.experiment import make_queries
from twqp.index import Document, Index, build_index
from twqp.relevance import build_rm3
from twqp.rerank import rerank_many
from twqp.retrieval import LogProbMemo, Query, RankedList, read_run, retrieve_topk, write_run
from twqp.synthetic import make_synthetic

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import (
    restrict_top_n,
    scalar_average_precision,
    scalar_precision_at,
    scalar_reciprocal_rank,
)


def _run(query_id, doc_ids):
    entries = tuple((d, float(-i)) for i, d in enumerate(doc_ids))
    return RankedList(query_id, entries)


class TestLoaders:
    def test_load_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\n\nq2 0 d9 2\n")
        qrels = load_qrels(path)
        assert qrels.judgments == {"q1": {"d1": 1, "d2": 0}, "q2": {"d9": 2}}
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.relevant_docs("q2") == {"d9"}
        assert qrels.relevant_count("q1") == 1

    def test_load_qrels_unjudged_defaults_to_zero(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\n")
        qrels = load_qrels(path)
        assert "nope" not in qrels.relevant_docs("q1")
        assert qrels.relevant_docs("q9") == frozenset()

    def test_relevant_docs_is_one_immutable_set_per_query(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 0, "d3": 2}, "q2": {"d4": 0}})
        relevant = qrels.relevant_docs("q1")
        assert isinstance(relevant, frozenset) and relevant == {"d1", "d3"}
        assert qrels.relevant_docs("q1") == relevant and qrels.relevant_count("q1") == 2
        for unscorable in ("q2", "q9"):
            assert qrels.relevant_docs(unscorable) == frozenset()
            assert qrels.relevant_count(unscorable) == 0

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

    def test_load_topics_duplicate_id(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tfirst\nq2\tsecond\n\nq1\tagain\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate topic q1 at line 4")):
            load_topics(path)

    @pytest.mark.parametrize("qid", ["", "q 000", " q1", "q1\u00a0"])
    def test_load_topics_rejects_an_id_a_run_cannot_carry(self, tmp_path, qid):
        path = tmp_path / "topics.tsv"
        path.write_text(f"q0\tfirst\n{qid}\tsecond\n", encoding="utf-8")
        expected = f"{path}: query id {qid!r} is empty or holds whitespace at line 2"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_topics(path)

    @pytest.mark.parametrize(
        "load, text, kind",
        [
            (load_qrels, "q1 0 d1 1\nq1 0 d2 x\n", "qrels"),
            (load_qrels, "q1 0 d1 1\nq1 0 d2 1.0\n", "qrels"),
            (read_run, "q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 2 abc t\n", "run"),
        ],
        ids=["qrels-grade-x", "qrels-grade-1.0", "run-score-abc"],
    )
    def test_unparsable_number_names_file_and_line(self, tmp_path, load, text, kind):
        path = tmp_path / "input.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed {kind} line 2")):
            load(path)


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

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        # A negative depth would slice from the end of the run, not cut it.
        qrels = Qrels({"q1": {"d1": 1}})
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            average_precision(_run("q1", ["d1", "d2"]), qrels, depth)

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
# ORACLE_DOCS for retrieval: each holds c, and some lack a or b.
RETRIEVAL_INDEX = build_index(
    [Document(d, "a " * (i % 4) + "b " * (i % 3) + "c") for i, d in enumerate(ORACLE_DOCS)], PLAIN
)
# Judged documents: ORACLE_DOCS and two that no run or index holds.
JUDGED = ORACLE_DOCS + ("x0", "x1")


def assert_measures_equal_the_loops(run, qrels, cutoff, depth):
    assert precision_at(run, qrels, cutoff) == scalar_precision_at(run, qrels, cutoff)
    assert reciprocal_rank(run, qrels) == scalar_reciprocal_rank(run, qrels)
    if qrels.relevant_count(run.query_id) == 0:
        with pytest.raises(ValueError, match="no relevant documents"):
            average_precision(run, qrels, depth)
        return
    assert average_precision(run, qrels, depth) == scalar_average_precision(run, qrels, depth)
    assert average_precision(run, qrels) == scalar_average_precision(run, qrels)


class TestMeasuresOracle:
    """The measures against tests/oracle.py's entry-by-entry loops, with ==,
    for lists built from entries, from arrays, by retrieval and re-ranking,
    and read back from a run file, and the p@k, AP and RR of each row of a
    hit matrix, as tuning and build_report read them."""

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.permutations(ORACLE_DOCS),
        length=st.integers(0, len(ORACLE_DOCS)),
        # grade 2, judged non-relevant (0) and unjudged (absent) documents
        grades=st.dictionaries(st.sampled_from(JUDGED), st.sampled_from([0, 1, 2])),
        cutoff=st.integers(1, 15),
        depth=st.integers(1, 15),
        arrays=st.booleans(),
    )
    def test_equal_to_the_entry_loops(self, order, length, grades, cutoff, depth, arrays):
        ids = order[:length]  # runs may be shorter than the cutoff
        if arrays:
            nums = ORACLE_INDEX.doc_numbers(ids)
            scores = -np.arange(length, dtype=float)
            run = RankedList.from_arrays("q1", nums, scores, ORACLE_INDEX)
        else:
            run = _run("q1", ids)
        qrels = Qrels({"q1": grades, "q2": {"d00": 1}})
        assert_measures_equal_the_loops(run, qrels, cutoff, depth)
        if qrels.relevant_count("q1") == 0:
            assert reciprocal_rank(run, qrels) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        terms=st.lists(st.sampled_from(["a", "b", "zz"]), min_size=1, max_size=3),
        mu=st.sampled_from([1.0, 10.0, 1000.0]),
        grades=st.dictionaries(st.sampled_from(JUDGED), st.sampled_from([0, 1, 2])),
        k=st.integers(1, 13),
        rerank_depth=st.integers(1, 13),
        weights=st.dictionaries(st.sampled_from(["a", "b"]), st.floats(-3.0, 3.0), min_size=1),
        cutoff=st.integers(1, 15),
        depth=st.integers(1, 15),
    )
    def test_retrieved_reranked_and_read_back_lists(
        self, terms, mu, grades, k, rerank_depth, weights, cutoff, depth
    ):
        q = Query("q1", tuple(terms))
        qrels = Qrels({"q1": grades, "q2": {"d00": 1}})
        retrieved = retrieve_topk(q, k, mu, RETRIEVAL_INDEX)
        runs = [retrieved]
        if retrieved:
            config = ExperimentConfig(rerank_depth=min(rerank_depth, len(retrieved)))
            memo = LogProbMemo(mu, RETRIEVAL_INDEX)
            runs += rerank_many(retrieved, [weights, {"b": 1.0}], config, memo)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q1.run"
            for run in runs[:]:
                write_run([run], path, "t")
                runs += read_run(path).values()
        for run in runs:
            assert_measures_equal_the_loops(run, qrels, cutoff, depth)

    @settings(max_examples=200, deadline=None)
    @given(
        orders=st.lists(st.permutations(ORACLE_DOCS), min_size=1, max_size=4),
        length=st.integers(0, len(ORACLE_DOCS)),
        scores=st.lists(
            st.sampled_from([0.0, -1.0, -2.0]), min_size=len(ORACLE_DOCS), max_size=len(ORACLE_DOCS)
        ),
        relevant=st.sets(st.sampled_from(JUDGED), min_size=1),
        k=st.integers(1, 15),
    )
    @example(  # no row holds a relevant document; x0 is in no list or index
        orders=[ORACLE_DOCS, ORACLE_DOCS[::-1]], length=5, scores=[0.0] * len(ORACLE_DOCS),
        relevant={"x0"}, k=10,
    )
    @example(  # zero-length rows: no first hit, so RR is 0.0
        orders=[ORACLE_DOCS, ORACLE_DOCS[::-1]], length=0, scores=[0.0] * len(ORACLE_DOCS),
        relevant={"d00"}, k=1,
    )
    def test_hit_matrix_rows_equal_the_entry_loop(self, orders, length, scores, relevant, k):
        # One row per list, read off the _judge mask at the lists' document
        # numbers, as the tuners read their grids: the rows share a length,
        # which may be below k, the lists hold tied scores in the order
        # given, and a relevant id outside the index counts in R alone.
        qrels = Qrels({"q1": dict.fromkeys(relevant, 1)})
        tied = sorted(scores[:length], reverse=True)
        runs = [RankedList("q1", list(zip(order[:length], tied))) for order in orders]
        mask, relevant_count = twqp.evaluation._judge("q1", qrels, ORACLE_INDEX)
        nums = np.array([run.doc_numbers(ORACLE_INDEX) for run in runs], dtype=np.int64)
        hits = mask[nums.reshape(len(runs), length)]
        got = average_precisions(hits[:, :k], relevant_count).tolist()
        assert got == [scalar_average_precision(run, qrels, k) for run in runs]
        got = precisions(hits, k).tolist()
        assert got == [scalar_precision_at(run, qrels, k) for run in runs]
        got = reciprocal_ranks(hits).tolist()
        assert got == [scalar_reciprocal_rank(run, qrels) for run in runs]

    def test_repeated_doc_id_counts_at_each_rank(self):
        # a list built from entries may repeat a doc id; each rank counts
        run = RankedList("q", [("d2", -1.0), ("d1", -2.0), ("d2", -3.0), ("d3", -4.0)])
        qrels = Qrels({"q": {"d2": 1, "d3": 0, "x9": 2}})
        for cutoff, depth in [(1, 1), (2, 3), (3, 4), (10, 1000)]:
            assert_measures_equal_the_loops(run, qrels, cutoff, depth)
        assert run.hits(["d2", "x9"]).tolist() == [True, False, True, False]

    def test_hits_ignore_ids_outside_the_table(self, fruit_index):
        run = retrieve_topk(Query("q", ("banana",)), 10, 5.0, fruit_index)
        assert run.doc_ids == ["d2", "d1"]
        assert run.hits(["d1", "nope"]).tolist() == [False, True]
        assert run.hits(["d1", "d2"], depth=1).tolist() == [True]
        assert run.hits([]).tolist() == [False, False]


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

    def test_equal_to_the_scipy_stats_tail(self):
        # paired_ttest takes scipy.special.stdtr directly; scipy.stats.t.sf
        # wraps the same function, so the two must agree to the bit, from
        # |t| near 0 to where the tail underflows to 0.
        from scipy import stats

        underflowed = 0
        for n in (2, 3, 10, 30, 1000):
            z = np.random.default_rng(n).normal(size=n)
            z = (z - z.mean()) / z.std(ddof=1)
            for exponent in np.arange(-8.0, 12.25, 0.25):
                for sign in (1.0, -1.0):
                    a = list(sign * 10.0**exponent / math.sqrt(n) + z)
                    b = [0.0] * n
                    diffs = np.asarray(a) - np.asarray(b)
                    t = float(diffs.mean()) / (float(diffs.std(ddof=1)) / math.sqrt(n))
                    p = paired_ttest(a, b)
                    assert p == 2.0 * float(stats.t.sf(abs(t), n - 1)), (n, t)
                    underflowed += p == 0.0
        assert underflowed > 0


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

    @pytest.mark.filterwarnings("ignore:zero-variance nonzero-mean differences")
    @settings(max_examples=100, deadline=None)
    @given(
        orders=st.lists(st.permutations(ORACLE_DOCS), min_size=4, max_size=4),
        lengths=st.lists(st.integers(0, len(ORACLE_DOCS)), min_size=4, max_size=4),
        grades=st.dictionaries(st.sampled_from(JUDGED), st.sampled_from([0, 1, 2])),
        depth=st.integers(1, 15),
    )
    def test_measures_equal_the_one_measure_functions(self, orders, lengths, grades, depth):
        # q1 may have no relevant document; q2 always has one
        qrels = Qrels({"q1": grades, "q2": {"d00": 1, "x0": 2}})
        ids = [order[:length] for order, length in zip(orders, lengths)]
        runs = {
            "A": {"q1": _run("q1", ids[0]), "q2": _run("q2", ids[1])},
            "B": {"q1": _run("q1", ids[2]), "q2": _run("q2", ids[3])},
        }
        report = build_report(runs, qrels, baseline="A", depth=depth)
        for method, by_query in runs.items():
            for qid, run in by_query.items():
                scorable = qrels.relevant_count(qid) > 0
                assert report.per_query[method][qid] == QueryMeasures(
                    p10=precision_at(run, qrels, 10),
                    ap=average_precision(run, qrels, depth) if scorable else None,
                    rr=reciprocal_rank(run, qrels) if scorable else None,
                )

    def test_depth_below_one_rejected(self):
        runs, qrels = self._fixture()
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            build_report(runs, qrels, baseline="A", depth=0)

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


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def exhaustive_tune_mu(queries, qrels, config, index):
    """The mu of config.mu_grid whose retrieve_topk lists have the highest
    mean AP over the judged queries, added in query order; a tie goes to
    the smaller mu."""
    best = None
    for mu in sorted(config.mu_grid):
        runs = [retrieve_topk(q, config.k, mu, index) for q in queries]
        judged = [run for run in runs if qrels.relevant_count(run.query_id)]
        aps = [average_precision(run, qrels, config.k) for run in judged]
        if not aps:
            raise ValueError("no scorable queries (every query has zero relevant docs)")
        mean = sum(aps) / len(aps)
        if best is None or mean > best[1]:
            best = (mu, mean)
    return best[0]


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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        index=corpora(),
        grid=st.lists(st.one_of(st.just(0.0), POSITIVE_MUS), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_equals_an_exhaustive_sweep(self, index, grid, data):
        grid += data.draw(st.lists(st.sampled_from(grid), max_size=2))  # repeated values
        terms = st.lists(st.sampled_from(VOCAB + (UNINDEXED,)), min_size=1, max_size=3)
        count = data.draw(st.integers(1, 3))
        queries = [Query(f"q{i}", tuple(data.draw(terms))) for i in range(count)]
        relevant = st.lists(st.sampled_from(index.doc_ids), max_size=4)
        qrels = Qrels({q.query_id: dict.fromkeys(data.draw(relevant), 1) for q in queries})
        k = data.draw(st.integers(1, index.doc_count + 1))
        config = ExperimentConfig(mu_grid=tuple(grid), k=k)
        assert outcome(tune_mu, queries, qrels, config, index) == outcome(
            exhaustive_tune_mu, queries, qrels, config, index
        )

    def test_empty_grid_rejected(self):
        index, queries, qrels = self._flip_corpus()
        with pytest.raises(ValueError, match="empty mu grid"):
            tune_mu(queries, qrels, ExperimentConfig(mu_grid=()), index)


def exhaustive_tune_rm3_m(lists, qrels, config, memo):
    """The m of config.rm3_m_grid whose re-ranked runs have the highest mean
    AP over the judged queries with a non-empty list, added in query order;
    a tie goes to the smaller m.  Each run re-ranks the list under the whole
    RM3 model at depth min(m, len), cut to its top config.rm3_n terms.
    With it, each list's build_rm3 model at min(m, len), clipped to
    config.rm3_n terms, as (term, probability) items in rank order, or None
    for a list the sweep skips."""
    best = None
    for m in sorted(config.rm3_m_grid):
        aps = []
        for q, base in lists:
            if not base or not qrels.relevant_count(q.query_id):
                continue
            depth = min(m, len(base))
            model = build_rm3(q, base, depth, config.rm3_mu, config.rm3_lambda, memo.index)
            weights = restrict_top_n(model, config.rm3_n)
            run = rerank_many(base, [weights], config, memo)[0]
            aps.append(average_precision(run, qrels, config.k))
        if not aps:
            raise ValueError("no scorable queries (every query has zero relevant docs)")
        mean = sum(aps) / len(aps)
        if best is None or mean > best[1]:
            best = (m, mean)
    m = best[0]
    return m, [
        list(
            build_rm3(
                q, base, min(m, len(base)), config.rm3_mu, config.rm3_lambda, memo.index,
                config.rm3_n,
            ).items()
        )
        if base and qrels.relevant_count(q.query_id)
        else None
        for q, base in lists
    ]


def tune_rm3_m_items(lists, qrels, config, memo):
    """tune_rm3_m's m, and each model as (term, probability) items in order."""
    m, models = tune_rm3_m(lists, qrels, config, memo)
    return m, [None if model is None else list(model.items()) for model in models]


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
        return LogProbMemo(1000.0, index), [(q, retrieve_topk(q, 1000, 1000.0, index))], qrels

    def test_singleton_grid(self):
        memo, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, ExperimentConfig(rm3_m_grid=(5,)), memo)[0] == 5

    def test_tie_takes_smaller_value(self):
        # both docs are relevant, so every feedback depth gives AP 1.0
        memo, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, ExperimentConfig(rm3_m_grid=(5, 10)), memo)[0] == 5

    def test_grid_order_does_not_matter(self):
        memo, lists, qrels = self._corpus()
        assert tune_rm3_m(lists, qrels, ExperimentConfig(rm3_m_grid=(10, 5)), memo)[0] == 5

    def test_empty_grid_rejected(self):
        memo, lists, qrels = self._corpus()
        with pytest.raises(ValueError, match="empty m grid"):
            tune_rm3_m(lists, qrels, ExperimentConfig(rm3_m_grid=()), memo)

    def test_model_comes_from_the_config(self, monkeypatch):
        # the tuned depth fits the RM3 model the experiment then weighs with,
        # clipped to config.rm3_n where the table builds it
        memo, lists, qrels = self._corpus()
        seen, maps_seen = [], []
        real_table, real_rerank = twqp.evaluation.rm3_table, twqp.evaluation.rerank_table

        def table(q, base, depths, mu, lam, index, n=None):
            seen.append((tuple(depths), mu, lam, n))
            return real_table(q, base, depths, mu, lam, index, n)

        def rerank(initial, terms, weights, config, memo):
            # each column of the weight table is one depth's term -> weight map
            maps_seen.append([dict(zip(terms, column.tolist())) for column in weights.T])
            return real_rerank(initial, terms, weights, config, memo)

        monkeypatch.setattr(twqp.evaluation, "rm3_table", table)
        monkeypatch.setattr(twqp.evaluation, "rerank_table", rerank)
        config = ExperimentConfig(rm3_m_grid=(5, 10), rm3_mu=250.0, rm3_lambda=0.3, rm3_n=2)
        assert tune_rm3_m(lists, qrels, config, memo)[0] == 5
        # the list holds 2 documents, so m = 5 and m = 10 both feed back
        # depth 2: one table for the query, one model
        assert seen == [((2,), 250.0, 0.3, 2)]
        q, base = lists[0]
        full = build_rm3(q, base, 2, 250.0, 0.3, memo.index)
        assert len(full) == 3  # w, a and b: the clip drops one
        assert maps_seen == [[restrict_top_n(full, 2)]]

    def test_each_clamped_depth_is_reranked_once(self, monkeypatch):
        # d1-d4 hold w, so every m >= 4 feeds back the whole list: m = 4, 5,
        # 6 and 9 share one model and run, tie, and the smallest must win
        docs = [
            Document("d1", "w w x"),
            Document("d2", "w w y"),
            Document("d3", "w w z"),
            Document("d4", "w v v v v v v v v v"),
            Document("d5", "v v v"),
        ]
        index = build_index(docs, PLAIN)
        q = Query("q1", ("w",))
        base = retrieve_topk(q, 1000, 10.0, index)
        qrels = Qrels({"q1": {"d1": 1}})
        maps_seen = []
        real = twqp.evaluation.rerank_table

        def counted(initial, terms, weights, config, memo):
            maps_seen.append(weights.shape[1])
            return real(initial, terms, weights, config, memo)

        monkeypatch.setattr(twqp.evaluation, "rerank_table", counted)
        grid = (6, 4, 9, 5, 2)
        config = ExperimentConfig(rm3_m_grid=grid, rerank_depth=4, rm3_mu=10.0, rm3_lambda=0.1)
        assert tune_rm3_m([(q, base)], qrels, config, LogProbMemo(10.0, index))[0] == 4
        assert maps_seen == [2]  # depths 2 and 4, in one call
        # against one model and re-rank per grid point
        ap = {}
        for m in grid:
            model = build_rm3(q, base, min(m, 4), config.rm3_mu, config.rm3_lambda, index)
            weights = restrict_top_n(model, config.rm3_n)
            run = rerank_many(base, [weights], config, LogProbMemo(10.0, index))[0]
            ap[m] = average_precision(run, qrels, 1000)
        assert ap[2] < ap[4] == ap[5] == ap[6] == ap[9]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        index=corpora(max_docs=30),
        grid=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        mu=POSITIVE_MUS,
        data=st.data(),
    )
    def test_equals_an_exhaustive_sweep(self, index, grid, mu, data):
        # Depths past a list's length come from lists shorter than 8.  The
        # whole list is re-ranked, and depths stay small, so that the mean
        # APs of the grid's depths differ often enough for the sweep to be
        # told from one that ignores the depth or the clip.
        grid += data.draw(st.lists(st.sampled_from(grid), max_size=2))  # repeated values
        k = data.draw(st.integers(1, index.doc_count + 1))
        config = ExperimentConfig(
            k=k,
            rerank_depth=k,
            rm3_mu=data.draw(POSITIVE_MUS),
            rm3_lambda=data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            rm3_n=data.draw(st.integers(1, len(VOCAB) + 2)),
            rm3_m_grid=tuple(grid),
        )
        terms = st.lists(st.sampled_from(index.vocabulary), min_size=1, max_size=3)
        count = data.draw(st.integers(1, 3))
        queries = [Query(f"q{i}", tuple(data.draw(terms))) for i in range(count)]
        relevant = st.lists(st.sampled_from(index.doc_ids), max_size=4)
        qrels = Qrels({q.query_id: dict.fromkeys(data.draw(relevant), 1) for q in queries})
        memo = LogProbMemo(mu, index)
        lists = [(q, retrieve_topk(q, k, mu, index, memo)) for q in queries]
        assert outcome(tune_rm3_m_items, lists, qrels, config, memo) == outcome(
            exhaustive_tune_rm3_m, lists, qrels, config, memo
        )


class TestTuningSkipsUnjudgedQueries:
    """A query with no relevant document is neither retrieved by tune_mu nor
    modelled by tune_rm3_m, and leaves the tuned values as they are."""

    def test_only_judged_queries_are_scored(self, monkeypatch):
        coll = make_synthetic(32)
        config = ExperimentConfig(mu_grid=(100, 500, 1000, 2000), rm3_m_grid=(5, 10, 20))
        index = build_index(coll.documents, config.analyzer)
        queries, _ = make_queries(coll.topics, index)
        unjudged = queries[1]
        judgments = coll.qrels.judgments
        qrels = Qrels({q: grades for q, grades in judgments.items() if q != unjudged.query_id})
        judged = [q for q in queries if q is not unjudged]

        matched, modelled = [], []
        real_matching, real_table = Index.matching_docs, twqp.evaluation.rm3_table

        def matching_docs(index, terms):
            matched.append(tuple(terms))
            return real_matching(index, terms)

        def rm3_table(q, *args, **kwargs):
            modelled.append(q.query_id)
            return real_table(q, *args, **kwargs)

        expected_mu = tune_mu(judged, qrels, config, index)
        with monkeypatch.context() as patch:
            patch.setattr(Index, "matching_docs", matching_docs)
            assert tune_mu(queries, qrels, config, index) == expected_mu
        assert matched == [q.bag[0] for q in judged]

        memo = LogProbMemo(float(expected_mu), index)
        lists = [(q, retrieve_topk(q, config.k, memo.mu, index, memo)) for q in queries]
        judged_lists = [(q, lst) for q, lst in lists if q is not unjudged]
        expected_m, _ = tune_rm3_m(judged_lists, qrels, config, memo)
        monkeypatch.setattr(twqp.evaluation, "rm3_table", rm3_table)
        m, models = tune_rm3_m(lists, qrels, config, memo)
        assert m == expected_m
        assert modelled == [q.query_id for q in judged]
        assert [model is None for model in models] == [q is unjudged for q, _ in lists]


def test_tuning_builds_no_ranked_list(monkeypatch):
    # Both tuners read every grid point's AP off arrays: no list is made
    # for a mu or a feedback depth, whatever the grids hold.
    coll = make_synthetic(32)
    config = ExperimentConfig(mu_grid=(100, 1000, 2000), rm3_m_grid=(5, 10, 10, 5000))
    index = build_index(coll.documents, config.analyzer)
    queries, _ = make_queries(coll.topics, index)
    memo = LogProbMemo(1000.0, index)
    lists = [(q, retrieve_topk(q, config.k, memo.mu, index, memo)) for q in queries]

    def made(*args):
        raise AssertionError("tuning built a ranked list")

    monkeypatch.setattr(RankedList, "_hold", made)
    assert tune_mu(queries, coll.qrels, config, index) in config.mu_grid
    assert tune_rm3_m(lists, coll.qrels, config, memo)[0] in config.rm3_m_grid
