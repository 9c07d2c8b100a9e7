"""Search on document numbers against the general paths, bit for bit.

A one-term bag's candidates are its term's postings, read straight off the
index; the tf gather of a term over its own postings copies its tfs; and the
log step takes every cell's log in one call over the array.  Each must give
what the general path gives (the candidate mask, the searchsorted gather,
math.log once per distinct value found by np.unique), compared with ==.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twqp.index import Document, build_index, collection_prob
from twqp.retrieval import _log_probs, gather_tf, log_prob_matrix

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import mask_matching_docs, searchsorted_tf, unique_log_step

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
TERMS = st.sampled_from(VOCAB + (UNINDEXED,))
# Every document holds "a"; "b" only some of them.
EVERYWHERE = build_index(
    [Document("d1", "a b a"), Document("d2", "a"), Document("d3", "c a"), Document("d4", "a a a")],
    PLAIN,
)


def candidate_sets(index):
    """Document-number arrays gather_tf is called with: a bag's candidates
    (its term's postings for one term), every document, or any subset in
    any order."""
    bags = st.lists(TERMS, min_size=1, max_size=4).map(index.matching_docs)
    every = st.just(np.arange(index.doc_count))
    subsets = st.lists(st.sampled_from(range(index.doc_count)), max_size=8).map(
        lambda nums: np.array(nums, dtype=np.int64)
    )
    return st.one_of(bags, every, subsets)


class TestMatchingDocs:
    @PROPERTY
    @given(index=corpora(), terms=st.lists(TERMS, min_size=1, max_size=4))
    def test_equals_the_collection_mask(self, index, terms):
        # one term, a term repeated, an unindexed term, or several terms
        got = index.matching_docs(terms)
        assert got.dtype == np.int64
        assert got.tolist() == mask_matching_docs(terms, index).tolist()

    @pytest.mark.parametrize("terms", [("a",), ("a", "a"), ("b",), (UNINDEXED,), ("a", "b")])
    def test_term_held_by_every_document(self, terms):
        got = EVERYWHERE.matching_docs(terms)
        assert got.tolist() == mask_matching_docs(terms, EVERYWHERE).tolist()

    @pytest.mark.parametrize("terms", [("a",), ("b", "b"), (UNINDEXED,)])
    def test_writing_into_the_candidates_leaves_the_index_alone(self, terms):
        before = EVERYWHERE.nums.copy()
        got = EVERYWHERE.matching_docs(terms)
        try:
            got[:] = 3
        except ValueError as exc:
            assert "read-only" in str(exc)
        assert EVERYWHERE.nums.tolist() == before.tolist()
        assert EVERYWHERE.nums.flags.writeable
        again = EVERYWHERE.matching_docs(terms)
        assert again.tolist() == mask_matching_docs(terms, EVERYWHERE).tolist()


class TestGatherTf:
    @PROPERTY
    @given(index=corpora(), terms=st.lists(TERMS, max_size=5), data=st.data())
    def test_equals_the_searchsorted_gather(self, index, terms, data):
        nums = data.draw(candidate_sets(index))
        got = gather_tf(terms, nums, index)
        assert got.shape == (len(terms), len(nums))
        assert got.tolist() == searchsorted_tf(terms, nums, index).tolist()

    @pytest.mark.parametrize("terms", [("a",), ("a", "a"), ("b", "a", UNINDEXED)])
    def test_term_held_by_every_document(self, terms):
        for nums in (EVERYWHERE.matching_docs(["a"]), np.arange(EVERYWHERE.doc_count)):
            got = gather_tf(terms, nums, EVERYWHERE)
            assert got.tolist() == searchsorted_tf(terms, nums, EVERYWHERE).tolist()

    def test_own_postings_copied_not_shared(self):
        nums = EVERYWHERE.matching_docs(["b"])
        got = gather_tf(["b", "b"], nums, EVERYWHERE)
        got[:] = 0
        assert EVERYWHERE.term("b")[1].tolist() == [1]


def _reference_log_probs(terms, nums, mu, index):
    """The log step on p in the oracle's association, through np.unique."""
    tf = searchsorted_tf(terms, nums, index)
    background = np.array([mu * collection_prob(w, index) for w in terms], dtype=float)
    return unique_log_step((tf + background[:, None]) / (index.lengths[nums] + mu))


class TestLogStep:
    def test_equals_math_log_bit_for_bit(self):
        # 1M seeded positive doubles: any finite bit pattern, subnormals,
        # uniform (0, 1] and values within 1e-6 of 1.  np.log's own loop
        # differs from the C library's log in the last ulp on some of them,
        # so a log step that took np.log fails here.
        rng = np.random.default_rng(28)
        p = np.concatenate(
            [
                rng.integers(1, 0x7FF0000000000000, 250_000).view(np.float64),
                rng.integers(1, 0x0010000000000000, 100_000).view(np.float64),
                1.0 - rng.random(450_000),
                1.0 + rng.uniform(-1e-6, 1e-6, 200_000),
                [0.0, 1.0],
            ]
        )
        got = _log_probs(0, p, 1.0, 0.0)  # (0 + p) / (1.0 + 0.0) is p
        expected = np.array([math.log(v) if v else -math.inf for v in p.tolist()])
        assert got.tolist()[-2:] == [-math.inf, 0.0]
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        with np.errstate(divide="ignore"):
            assert not np.array_equal(np.log(p).view(np.int64), expected.view(np.int64))

    @PROPERTY
    @given(
        index=corpora(),
        terms=st.lists(TERMS, max_size=5),
        mu=st.one_of(st.just(0.0), POSITIVE_MUS),
        data=st.data(),
    )
    def test_equals_the_np_unique_log_step(self, index, terms, mu, data):
        # at mu = 0, a document lacking a term has p = 0 and log -inf
        nums = data.draw(candidate_sets(index))
        got = log_prob_matrix(terms, nums, mu, index)
        assert got.tolist() == _reference_log_probs(terms, nums, mu, index).tolist()

    def test_zero_probability_is_minus_inf(self):
        nums = np.arange(EVERYWHERE.doc_count)
        got = log_prob_matrix(["b", "a"], nums, 0.0, EVERYWHERE)
        assert got[0].tolist() == [math.log(1 / 3), -math.inf, -math.inf, -math.inf]
        assert got.tolist() == _reference_log_probs(["b", "a"], nums, 0.0, EVERYWHERE).tolist()
