"""Array-backed ranked lists against lists built from their entries.

Every list holds read-only document-number and score arrays over a doc-id
table.  retrieve_topk and the re-rankers number into the index's doc ids;
a list built from (doc_id, score) pairs numbers into its own, so the
predictors reach its index numbers through index.doc_numbers.  retrieve_grid
gathers a query's candidates once and scores them at every mu of a grid.
Every path must give the same lists and the same floats, compared with ==.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.index import Document, build_index
from twqp.qpp import predict_nqc, predict_wig, score_gap
from twqp.retrieval import LogProbMemo, Query, RankedList, retrieve_grid, retrieve_topk
from twqp.weighting import nwig_weights, sror_term

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def draw_query(data, index, terms=None):
    """1-4 terms, duplicates allowed."""
    terms = data.draw(st.lists(st.sampled_from(terms or index.vocabulary), min_size=1, max_size=4))
    return Query("q", tuple(terms))


def twin(lst):
    """The same list, built from its entries."""
    return RankedList(lst.query_id, lst.entries)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def bits(lst):
    return lst.doc_ids, lst.score_array().tobytes(), lst.query_id


class TestOneStorageForm:
    """A list built from entries holds the same read-only arrays as a
    retrieved one, numbered into its own ids."""

    @PROPERTY
    @given(index=corpora(), data=st.data())
    def test_entries_built_list_gives_back_its_entries(self, index, data):
        ids = data.draw(st.lists(st.sampled_from(index.doc_ids), max_size=12, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        scores = data.draw(st.lists(finite, min_size=len(ids), max_size=len(ids)))
        entries = tuple(zip(ids, scores))
        lst = RankedList("q", iter(entries))
        assert lst.entries == entries and lst.doc_ids == ids and lst.scores == scores
        assert len(lst) == len(entries) and bool(lst) is bool(entries)
        assert lst.doc_numbers(index).tolist() == index.doc_numbers(ids).tolist()
        assert not lst.score_array().flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lst.score_array()[:] = 0.0

    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_retrieved_score_array_is_read_only(self, index, mu, data):
        q = draw_query(data, index, VOCAB + (UNINDEXED,))
        lst = retrieve_topk(q, data.draw(st.integers(1, index.doc_count + 1)), mu, index)
        assert not lst.score_array().flags.writeable
        assert not lst.doc_numbers(index).flags.writeable

    def test_unknown_doc_id_is_named(self, fruit_index):
        lst = RankedList("q", [("d1", -1.0), ("d404", -2.0)])
        with pytest.raises(KeyError, match="d404"):
            lst.doc_numbers(fruit_index)


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
        assert repr(lst) == f"RankedList(query_id='q', entries={lst.entries!r})"
        assert lst != RankedList("r", lst.entries)
        assert lst != lst.entries


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPredictorsReadTheArrays:
    @PROPERTY
    @given(index=corpora(), mu=POSITIVE_MUS, data=st.data())
    def test_same_float_on_the_list_and_its_twin(self, index, mu, data):
        q = draw_query(data, index)
        k = data.draw(st.integers(1, index.doc_count + 1))
        lst = retrieve_topk(q, k, mu, index)
        other = twin(lst)
        m = data.draw(st.integers(1, len(lst) + 2))
        terms = data.draw(st.lists(st.sampled_from(VOCAB + (UNINDEXED,)), max_size=6))

        def memo():  # a fresh one per call: no row built for one list serves the other
            return LogProbMemo(mu, index)

        for a, b in [(lst, other), (other, lst)]:
            assert predict_wig(a, q, m, memo()) == predict_wig(b, q, m, memo())
            assert outcome(predict_nqc, a, q, m, index) == outcome(predict_nqc, b, q, m, index)
            assert score_gap(a) == score_gap(b)
            got = nwig_weights(terms, a, m, memo())
            assert list(got.items()) == list(nwig_weights(terms, b, m, memo()).items())
            for w in set(q.terms):
                assert sror_term(w, q, k, memo(), a) == sror_term(w, q, k, memo(), b)


class TestRetrieveGrid:
    """retrieve_grid scores one query at every mu of a grid in one pass and
    gives retrieve_topk's list at each, bit for bit."""

    @PROPERTY
    @given(
        index=corpora(),
        grid=st.lists(st.one_of(st.just(0.0), POSITIVE_MUS), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_equals_retrieve_topk_at_every_mu(self, index, grid, data):
        grid += data.draw(st.lists(st.sampled_from(grid), max_size=2))  # repeated values
        grid = data.draw(st.permutations(grid))
        q = draw_query(data, index, VOCAB + (UNINDEXED,))
        k = data.draw(st.integers(1, index.doc_count + 1))
        lists = retrieve_grid(q, k, grid, index)
        assert len(lists) == len(grid)
        for mu, lst in zip(grid, lists):
            assert bits(lst) == bits(retrieve_topk(q, k, mu, index))
            assert lst == retrieve_topk(q, k, mu, index)

    def test_k_below_the_candidate_count_cuts_every_list(self, fruit_index):
        q = Query("q", ("banana", "cherry"))
        grid = [0.0, 3.0, 3.0, 50.0]
        for k in (1, 2, 3):
            lists = retrieve_grid(q, k, grid, fruit_index)
            assert [len(lst) for lst in lists] == [min(k, 2)] * len(grid)
            assert [bits(lst) for lst in lists] == [
                bits(retrieve_topk(q, k, mu, fruit_index)) for mu in grid
            ]

    def test_repeated_values_give_the_same_list(self, fruit_index):
        q = Query("q", ("apple", "cherry", "cherry"))
        first, again = retrieve_grid(q, 5, [7.0, 7.0], fruit_index)
        assert bits(first) == bits(again) == bits(retrieve_topk(q, 5, 7.0, fruit_index))

    def test_mu_zero_with_an_empty_document_as_retrieve_topk(self):
        # An empty document holds no term, so it is never a candidate: at
        # mu = 0 both paths score the candidates, and a document lacking a
        # query term scores -inf.
        index = build_index([Document("d1", "a b"), Document("d2", ""), Document("d3", "b")], PLAIN)
        q = Query("q", ("a", "b"))
        (lst,) = retrieve_grid(q, 10, [0.0], index)
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
            retrieve_grid(q, 10, [10.0, mu], index)

    def test_bad_mu_anywhere_raises_before_any_list_is_made(self, fruit_index, monkeypatch):
        made = []
        real = RankedList.from_arrays.__func__

        def from_arrays(cls, *args):
            made.append(args[0])
            return real(cls, *args)

        monkeypatch.setattr(RankedList, "from_arrays", classmethod(from_arrays))
        q = Query("q", ("apple",))
        assert len(retrieve_grid(q, 5, [1.0, 2.0], fruit_index)) == 2
        assert made == ["q", "q"]
        made.clear()
        for grid in ([-1.0, 1.0, 2.0], [1.0, -1.0, 2.0], [1.0, 2.0, -1.0]):
            with pytest.raises(ValueError, match="mu must be >= 0"):
                retrieve_grid(q, 5, grid, fruit_index)
        assert made == []

    def test_no_match_gives_the_same_empty_list(self, fruit_index):
        q = Query("q", (UNINDEXED,))
        lists = retrieve_grid(q, 5, [0.0, 10.0], fruit_index)
        assert lists == [retrieve_topk(q, 5, mu, fruit_index) for mu in (0.0, 10.0)]
        assert lists == [RankedList("q", ())] * 2

    def test_empty_query_rejected(self):
        # rejected when the query is made, so no grid is handed one
        with pytest.raises(ValueError, match="empty query"):
            Query("q", ())

