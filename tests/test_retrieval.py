"""Smoothed scoring and top-k retrieval against hand and exhaustive oracles."""

import math

import numpy as np
import pytest

from twqp.index import Document, build_index, collection_prob
from twqp.retrieval import (
    Query,
    RankedList,
    expand_query,
    format_run,
    read_run,
    retrieve_topk,
    score_ql,
    smoothed_prob,
    write_run,
)

from conftest import PLAIN, make_random_corpus, random_query


class TestSmoothedProb:
    """Hand-checkable fractions on the fruit corpus.

    d1 = apple x2 + banana (length 3), d2 = banana + cherry (length 2);
    collection: apple 2/5, banana 2/5, cherry 1/5.
    """

    def test_exact_fractions(self, fruit_index):
        assert smoothed_prob("apple", "d1", 10.0, fruit_index) == (2 + 10 * 0.4) / 13
        assert smoothed_prob("cherry", "d1", 10.0, fruit_index) == (0 + 10 * 0.2) / 13
        assert smoothed_prob("apple", "d2", 10.0, fruit_index) == (0 + 10 * 0.4) / 12

    def test_mu_zero_is_document_mle(self, fruit_index):
        assert smoothed_prob("apple", "d1", 0.0, fruit_index) == 2 / 3
        assert smoothed_prob("cherry", "d1", 0.0, fruit_index) == 0.0

    def test_out_of_vocabulary_is_zero(self, fruit_index):
        assert smoothed_prob("durian", "d1", 10.0, fruit_index) == 0.0

    def test_negative_mu_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="mu"):
            smoothed_prob("apple", "d1", -1.0, fruit_index)

    def test_empty_doc_with_mu_zero_rejected(self):
        index = build_index([Document("d1", "apple"), Document("d2", "")], PLAIN)
        with pytest.raises(ValueError, match="d2"):
            smoothed_prob("apple", "d2", 0.0, index)

    def test_large_mu_approaches_collection_model(self, fruit_index):
        for w in ("apple", "banana", "cherry"):
            p = smoothed_prob(w, "d1", 1e9, fruit_index)
            expected = collection_prob(w, fruit_index)
            assert abs(p - expected) / expected < 1e-6


class TestScoreQL:
    def test_hand_value(self, fruit_index):
        q = Query("q1", ("apple", "banana"))
        expected_d1 = math.log((2 + 4.0) / 13) + math.log((1 + 4.0) / 13)
        expected_d2 = math.log((0 + 4.0) / 12) + math.log((1 + 4.0) / 12)
        assert abs(score_ql(q, "d1", 10.0, fruit_index) - expected_d1) < 1e-12
        assert abs(score_ql(q, "d2", 10.0, fruit_index) - expected_d2) < 1e-12

    def test_duplicate_term_counts_twice(self, fruit_index):
        single = Query("q1", ("apple",))
        double = Query("q1", ("apple", "apple"))
        s1 = score_ql(single, "d1", 10.0, fruit_index)
        s2 = score_ql(double, "d1", 10.0, fruit_index)
        assert s2 == 2 * s1

    def test_zero_probability_term_gives_minus_inf(self, fruit_index):
        q = Query("q1", ("apple", "cherry"))
        assert score_ql(q, "d1", 0.0, fruit_index) == -math.inf

    def test_independent_summation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            index = build_index(make_random_corpus(rng, 15), PLAIN)
            q = random_query(rng, index)
            mu = float(rng.uniform(0.5, 2000))
            doc_id = sorted(index.doc_lengths)[int(rng.integers(0, index.doc_count))]
            expected = math.fsum(
                math.log(smoothed_prob(w, doc_id, mu, index)) for w in q.terms
            )
            assert abs(score_ql(q, doc_id, mu, index) - expected) < 1e-12


class TestRetrieveTopk:
    def test_exhaustive_oracle(self):
        """Scoring every matching doc directly must give the same ranking."""
        rng = np.random.default_rng(41)
        for _ in range(10):
            index = build_index(make_random_corpus(rng, int(rng.integers(10, 60))), PLAIN)
            q = random_query(rng, index)
            mu = float(rng.uniform(1, 3000))
            k = int(rng.integers(1, 40))
            got = retrieve_topk(q, k, mu, index)
            scored = [
                (d, score_ql(q, d, mu, index)) for d in index.matching_docs(q.terms)
            ]
            scored.sort(key=lambda e: (-e[1], e[0]))
            assert got.entries == tuple(scored[:k])

    def test_ties_break_by_doc_id(self):
        docs = [Document(d, "apple pie") for d in ("d3", "d1", "d2")]
        index = build_index(docs, PLAIN)
        got = retrieve_topk(Query("q1", ("apple",)), 10, 100.0, index)
        assert got.doc_ids == ["d1", "d2", "d3"]
        assert got.scores[0] == got.scores[1] == got.scores[2]

    def test_k_larger_than_matches(self, fruit_index):
        got = retrieve_topk(Query("q1", ("apple",)), 50, 10.0, fruit_index)
        assert got.doc_ids == ["d1"]

    def test_no_matches_is_empty_not_error(self, fruit_index):
        got = retrieve_topk(Query("q1", ("durian",)), 10, 10.0, fruit_index)
        assert got.entries == ()

    def test_empty_query_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="empty query"):
            retrieve_topk(Query("q1", ()), 10, 10.0, fruit_index)

    def test_k_below_one_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="k"):
            retrieve_topk(Query("q1", ("apple",)), 0, 10.0, fruit_index)

    @pytest.mark.parametrize("term", ["apple", "zzz"])
    def test_negative_mu_rejected_with_or_without_matches(self, fruit_index, term):
        # checked before the candidates are looked up, so an unmatched
        # query is rejected too rather than returning an empty list
        with pytest.raises(ValueError, match="mu must be >= 0"):
            retrieve_topk(Query("q", (term,)), 10, -5.0, fruit_index)

    def test_more_occurrences_rank_higher(self):
        # same length, higher tf of the query term -> strictly better score
        docs = [
            Document("d1", "apple apple pear"),
            Document("d2", "apple pear pear"),
        ]
        index = build_index(docs, PLAIN)
        got = retrieve_topk(Query("q1", ("apple",)), 10, 50.0, index)
        assert got.doc_ids == ["d1", "d2"]
        assert got.scores[0] > got.scores[1]


class TestExpandQuery:
    def test_appends_and_keeps_duplicates(self):
        q = Query("q1", ("apple", "apple"))
        expanded = expand_query(q, "banana")
        assert expanded.terms == ("apple", "apple", "banana")
        assert expanded.query_id == "q1"

    def test_existing_term_duplicated(self):
        assert expand_query(Query("q1", ("apple",)), "apple").terms == ("apple", "apple")

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            expand_query(Query("q1", ("apple",)), "")


class TestRunFiles:
    def test_format_fixture(self):
        lists = [RankedList("q1", (("d2", -1.5), ("d1", -2.25)), 10)]
        assert format_run(lists, "QL") == (
            "q1 Q0 d2 1 -1.500000 QL\nq1 Q0 d1 2 -2.250000 QL\n"
        )

    def test_empty_run_is_empty_string(self):
        assert format_run([], "QL") == ""

    def test_write_read_round_trip(self, tmp_path):
        lists = [
            RankedList("q1", (("d1", -1.0), ("d2", -2.5)), 10),
            RankedList("q2", (("d3", -0.125),), 10),
        ]
        path = tmp_path / "out.run"
        write_run(lists, path, "tag")
        back = read_run(path)
        assert sorted(back) == ["q1", "q2"]
        assert back["q1"].doc_ids == ["d1", "d2"]
        assert back["q1"].scores == [-1.0, -2.5]
        assert back["q2"].doc_ids == ["d3"]

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 -1.0 tag\nq1 Q0 d2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_run(path)
