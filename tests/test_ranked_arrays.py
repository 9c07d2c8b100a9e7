"""Array-backed ranked lists against lists built from their entries.

retrieve_topk and the re-rankers return lists that hold document-number and
score arrays; the predictors read those arrays, and a list built from
(doc_id, score) pairs goes through index.doc_numbers instead.  retrieve_grid
gathers each query's candidates once and scores them at every mu of a grid.
Every path must give the same lists and the same floats, compared with ==.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.index import Document, build_index
from twqp.qpp import nwig_weights, predict_nqc, predict_wig, score_gap, sror_term
from twqp.retrieval import LogProbMemo, Query, RankedList, retrieve_grid, retrieve_topk

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def draw_query(data, index, terms=None):
    """1-4 terms, duplicates allowed."""
    terms = data.draw(st.lists(st.sampled_from(terms or index.vocabulary), min_size=1, max_size=4))
    return Query("q", tuple(terms))


def twin(lst):
    """The same list, built from its entries."""
    return RankedList(lst.query_id, lst.entries, lst.k)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def bits(lst):
    return lst.doc_ids, lst.score_array().tobytes(), lst.k, lst.query_id


class TestArrayBackedList:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, memo=st.booleans(), data=st.data())
    def test_retrieved_list_equals_its_entries_twin(self, index, mu, memo, data):
        q = draw_query(data, index, VOCAB + (UNINDEXED,))
        k = data.draw(st.integers(1, index.doc_count + 1))
        lst = retrieve_topk(q, k, mu, index, LogProbMemo(mu, index) if memo else None)
        other = twin(lst)
        assert lst == other and other == lst
        assert hash(lst) == hash(other)
        assert len(lst) == len(other) == len(lst.entries)
        assert lst.doc_ids == other.doc_ids and lst.scores == other.scores
        assert lst.doc_numbers(index).tolist() == other.doc_numbers(index).tolist()
        assert lst.score_array().tobytes() == other.score_array().tobytes()
        assert all(type(d) is str and type(s) is float for d, s in lst.entries)

    def test_repr_and_inequality(self, fruit_index):
        lst = retrieve_topk(Query("q", ("cherry",)), 10, 5.0, fruit_index)
        assert repr(lst) == f"RankedList(query_id='q', entries={lst.entries!r}, k=10)"
        assert lst != RankedList("q", lst.entries, 9)
        assert lst != RankedList("r", lst.entries, 10)
        assert lst != lst.entries


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPredictorsReadTheArrays:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, memo=st.booleans(), data=st.data())
    def test_same_float_on_the_list_and_its_twin(self, index, mu, memo, data):
        q = draw_query(data, index)
        k = data.draw(st.integers(1, index.doc_count + 1))
        lst = retrieve_topk(q, k, mu, index)
        other = twin(lst)
        m = data.draw(st.integers(1, len(lst) + 2))
        terms = data.draw(st.lists(st.sampled_from(VOCAB + (UNINDEXED,)), max_size=6))

        def memo_at():
            return LogProbMemo(mu, index) if memo else None

        for a, b in [(lst, other), (other, lst)]:
            assert predict_wig(a, q, m, mu, index, memo_at()) == predict_wig(
                b, q, m, mu, index, memo_at()
            )
            assert outcome(predict_nqc, a, q, m, index) == outcome(predict_nqc, b, q, m, index)
            assert score_gap(a) == score_gap(b)
            got = nwig_weights(terms, a, m, mu, index, memo_at())
            assert list(got.items()) == list(nwig_weights(terms, b, m, mu, index).items())
            for w in set(q.terms):
                assert sror_term(w, q, k, mu, index, a, memo_at()) == sror_term(
                    w, q, k, mu, index, b
                )


class TestRetrieveGrid:
    @PROPERTY
    @given(
        index=corpora(),
        grid=st.lists(st.one_of(st.just(0.0), POSITIVE_MUS), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_equals_retrieve_topk_at_every_mu(self, index, grid, data):
        queries = [
            Query(f"q{i}", draw_query(data, index, VOCAB + (UNINDEXED,)).terms)
            for i in range(data.draw(st.integers(1, 3)))
        ]
        k = data.draw(st.integers(1, index.doc_count + 1))
        seen = []
        for mu, lists in retrieve_grid(queries, k, grid, index):
            seen.append(mu)
            assert len(lists) == len(queries)
            for q, lst in zip(queries, lists):
                assert bits(lst) == bits(retrieve_topk(q, k, mu, index))
                assert lst == retrieve_topk(q, k, mu, index)
        assert seen == grid

    def test_mu_zero_with_an_empty_document_as_retrieve_topk(self):
        # An empty document holds no term, so it is never a candidate: at
        # mu = 0 both paths score the candidates, and a document lacking a
        # query term scores -inf.
        index = build_index([Document("d1", "a b"), Document("d2", ""), Document("d3", "b")], PLAIN)
        q = Query("q", ("a", "b"))
        ((_, (lst,)),) = retrieve_grid([q], 10, [0.0], index)
        assert bits(lst) == bits(retrieve_topk(q, 10, 0.0, index))
        assert lst.scores[-1] == -math.inf

    @pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("terms", [("a",), (UNINDEXED,)])
    def test_bad_mu_raises_as_retrieve_topk(self, mu, terms):
        index = build_index([Document("d1", "a b"), Document("d2", "")], PLAIN)
        q = Query("q", terms)
        with pytest.raises(ValueError) as expected:
            retrieve_topk(q, 10, mu, index)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            list(retrieve_grid([q], 10, [10.0, mu], index))

    def test_no_match_gives_the_same_empty_list(self, fruit_index):
        q = Query("q", (UNINDEXED,))
        ((_, (lst,)),) = retrieve_grid([q], 5, [10.0], fruit_index)
        assert lst == retrieve_topk(q, 5, 10.0, fruit_index) == RankedList("q", (), 5)
        assert len(lst) == 0

    def test_empty_query_rejected(self, fruit_index):
        with pytest.raises(ValueError, match="empty query"):
            list(retrieve_grid([Query("q", ())], 5, [10.0], fruit_index))

    def test_grid_points_are_made_one_at_a_time(self, fruit_index):
        q = Query("q", ("apple",))
        grid = retrieve_grid([q], 5, [1.0, -1.0], fruit_index)
        mu, lists = next(grid)  # the bad second mu is not reached yet
        assert mu == 1.0 and lists == [retrieve_topk(q, 5, 1.0, fruit_index)]
        with pytest.raises(ValueError, match="mu must be >= 0"):
            next(grid)
