"""The log-probability memo against the kernel it stands in for.

weigh_queries scores every list of a call from one LogProbMemo, and
run_experiment shares one across tuning's re-ranks, weighing and the final
re-ranks: a term's full-width row is built once and every later score
gathers columns from it.
Each check here compares with == (or byte equality), never approximately.
"""

import math
import re
import sys
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twqp.experiment
from twqp.config import ExperimentConfig
from twqp.experiment import expand_and_weigh, make_queries
from twqp.index import Document, build_index
from twqp.qpp import PredictorKind, PredictorSpec, predict_quality, wig_batch
from twqp.retrieval import LogProbMemo, Query, log_prob_matrix, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod, twqp_weight, weigh_queries

from conftest import PLAIN, POSITIVE_MUS, UNINDEXED, VOCAB, corpora
from oracle import delta_p, scalar_wig

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# d2 is empty: a full-width row covers it although no candidate set does.
WITH_EMPTY_DOC = build_index(
    [
        Document("d1", "a b a"),
        Document("d2", ""),
        Document("d3", "b c c"),
        Document("d4", "c d e e e e"),
    ],
    PLAIN,
)
# Lengths 3, 4, 2 and 1; b, c and d share collection frequency 2.
SHARED_CF = build_index(
    [
        Document("d1", "a b a"),
        Document("d2", "c c b d"),
        Document("d3", "e d"),
        Document("d4", "a"),
    ],
    PLAIN,
)
INDEXES = st.one_of(corpora(), st.just(WITH_EMPTY_DOC))
TERMS = st.sampled_from(VOCAB + (UNINDEXED,))
TWQP_KINDS = {
    WeightingMethod.TWQP_WIG: PredictorKind.WIG,
    WeightingMethod.TWQP_NQC: PredictorKind.NQC,
    WeightingMethod.TWQP_SCORE_RATIO: PredictorKind.SCORE_RATIO,
}


def count_log_prob_matrix(monkeypatch, stage=()):
    """Wrap log_prob_matrix in every twqp module that binds it.  The Counter
    returned counts calls by (stage[-1], or None, and the module's name)."""
    logged = Counter()
    for name, module in list(sys.modules.items()):
        real = vars(module).get("log_prob_matrix") if name.startswith("twqp.") else None
        if real is not None:

            def wrapper(*args, real=real, name=name, **kwargs):
                logged[stage[-1] if stage else None, name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "log_prob_matrix", wrapper)
    return logged


def doc_numbers(data, index):
    """A subset of the document numbers, in any order, possibly empty."""
    nums = data.draw(st.lists(st.integers(0, index.doc_count - 1), unique=True, max_size=12))
    return np.array(nums, dtype=np.int64)


class TestGather:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_equals_log_prob_matrix_bit_for_bit(self, index, mu, data):
        memo = LogProbMemo(mu, index)
        for _ in range(data.draw(st.integers(1, 4))):  # later gathers reuse rows
            terms = data.draw(st.lists(TERMS, min_size=1, max_size=4))
            nums = doc_numbers(data, index)
            got = memo.matrix(terms, nums)
            expected = log_prob_matrix(terms, nums, mu, index)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_unindexed_row_is_minus_inf(self):
        memo = LogProbMemo(10.0, WITH_EMPTY_DOC)
        nums = np.arange(WITH_EMPTY_DOC.doc_count)
        got = memo.matrix([UNINDEXED, "a", UNINDEXED], nums)
        assert (got[[0, 2]] == -math.inf).all()
        assert np.isfinite(got[1]).all()

    def test_no_terms_gives_an_empty_matrix(self, fruit_index):
        got = LogProbMemo(10.0, fruit_index).matrix([], np.array([1, 0]))
        assert got.shape == (0, 2)


class TestRowBuilder:
    """A row is built from tf-0 logs per length class and its postings' logs."""

    @pytest.mark.parametrize("mu", [1e-3, 1.0, 100.0, 5000.0])
    @pytest.mark.parametrize("index", [SHARED_CF, WITH_EMPTY_DOC], ids=["shared-cf", "empty-doc"])
    def test_every_row_equals_log_prob_matrix_bytes(self, index, mu):
        memo = LogProbMemo(mu, index)
        every = np.arange(index.doc_count)
        for w in (*index.vocabulary, UNINDEXED):
            expected = log_prob_matrix([w], every, mu, index)
            assert memo.matrix([w], every).tobytes() == expected.tobytes(), w

    @PROPERTY
    @given(index=st.one_of(INDEXES, st.just(SHARED_CF)), mu=POSITIVE_MUS, data=st.data())
    def test_batched_rows_equal_one_term_rows_and_the_kernel(self, index, mu, data):
        every = np.arange(index.doc_count)
        batched, single = LogProbMemo(mu, index), LogProbMemo(mu, index)
        for _ in range(data.draw(st.integers(1, 3))):  # later gathers mix known and new terms
            terms = data.draw(st.lists(TERMS, min_size=1, max_size=8))  # repeats allowed
            got = batched.matrix(terms, every).tobytes()
            one_term = b"".join(single.matrix([w], every).tobytes() for w in terms)
            assert got == one_term == log_prob_matrix(terms, every, mu, index).tobytes()

    def test_one_gather_builds_its_missing_terms_together(self, monkeypatch):
        # b, c and d share collection frequency 2 and are first met here,
        # with b repeated and a term no document holds
        batches = []
        real = LogProbMemo._build_rows

        def build(memo, terms):
            batches.append(list(terms))
            return real(memo, terms)

        monkeypatch.setattr(LogProbMemo, "_build_rows", build)
        memo = LogProbMemo(10.0, SHARED_CF)
        every = np.arange(SHARED_CF.doc_count)
        terms = ["b", "c", UNINDEXED, "b", "d"]
        got = memo.matrix(terms, every)
        assert got.tobytes() == log_prob_matrix(terms, every, 10.0, SHARED_CF).tobytes()
        assert sorted(memo._off_postings) == [0, 2]
        got = memo.matrix(["d", "a", "b"], every)
        assert got.tobytes() == log_prob_matrix(["d", "a", "b"], every, 10.0, SHARED_CF).tobytes()
        assert batches == [["b", "c", UNINDEXED, "d"], ["a"]]

    def test_terms_of_one_collection_frequency_share_their_tf0_logs(self):
        assert len(set(SHARED_CF.lengths.tolist())) >= 3
        memo = LogProbMemo(10.0, SHARED_CF)
        memo.matrix(["b", "c", "d"], np.arange(SHARED_CF.doc_count))
        assert len(memo._off_postings) == 1


class TestRetrieveWithMemo:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_same_list_as_without(self, index, mu, data):
        memo = LogProbMemo(mu, index)
        for _ in range(data.draw(st.integers(1, 4))):
            q = Query("q", tuple(data.draw(st.lists(TERMS, min_size=1, max_size=4))))
            k = data.draw(st.integers(1, index.doc_count + 1))
            assert retrieve_topk(q, k, mu, index, memo) == retrieve_topk(q, k, mu, index)

    def test_memo_at_another_mu_rejected(self, fruit_index):
        memo = LogProbMemo(10.0, fruit_index)
        with pytest.raises(ValueError, match="memo holds log probabilities at mu=10.0"):
            retrieve_topk(Query("q", ("apple",)), 10, 20.0, fruit_index, memo)

    def test_memo_over_another_index_rejected(self, fruit_index):
        memo = LogProbMemo(10.0, WITH_EMPTY_DOC)
        with pytest.raises(ValueError, match="memo holds log probabilities at mu=10.0"):
            retrieve_topk(Query("q", ("apple",)), 10, 10.0, fruit_index, memo)

    @pytest.mark.parametrize("mu", [0, 0.0, -1.0, math.nan, math.inf])
    def test_non_positive_mu_rejected(self, fruit_index, mu):
        with pytest.raises(ValueError, match="requires mu > 0"):
            LogProbMemo(mu, fruit_index)


class TestWig:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_equals_the_scalar_loop(self, index, mu, data):
        q = Query("q", tuple(data.draw(st.lists(TERMS, min_size=1, max_size=4))))
        lst = retrieve_topk(q, 1000, mu, index)
        if not lst.entries:
            return
        m = data.draw(st.integers(1, len(lst.entries) + 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = scalar_wig(lst, q, m, mu, index)
            assert wig_batch([lst], [q], m, LogProbMemo(mu, index))[0] == expected

    def test_adds_in_bag_order(self):
        # here adding the terms in sorted order gives another float
        index = build_index(
            [Document("d1", "a b a c"), Document("d2", "b c d d e"), Document("d3", "e a d")],
            PLAIN,
        )
        q = Query("q", ("d", "b", "b", "a"))
        lst = retrieve_topk(q, 10, 1.0, index)
        expected = scalar_wig(lst, q, 1, 1.0, index)
        assert scalar_wig(lst, Query("q", tuple(sorted(q.terms))), 1, 1.0, index) != expected
        assert wig_batch([lst], [q], 1, LogProbMemo(1.0, index))[0] == expected


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestWeighQueriesWithMemo:
    @PROPERTY
    @given(index=INDEXES, mu=POSITIVE_MUS, data=st.data())
    def test_twqp_tables_equal_delta_p_without_memo(self, index, mu, data):
        """One memo for the whole call gives what the reference delta_p, on
        a memo per term, does."""
        k = data.draw(st.integers(1, index.doc_count + 1))
        predictor_m = data.draw(st.one_of(st.none(), st.integers(1, index.doc_count + 2)))
        indexed = st.sampled_from(index.vocabulary)
        q = Query("q", tuple(data.draw(st.lists(indexed, min_size=1, max_size=4))))
        vocabulary = data.draw(st.lists(indexed, min_size=1, max_size=6))
        config = ExperimentConfig(k=k, qpp_m=predictor_m)
        base = retrieve_topk(q, k, mu, index)
        for method, kind in TWQP_KINDS.items():
            spec = PredictorSpec(kind, predictor_m)
            memo = LogProbMemo(mu, index)
            try:
                weights = weigh_queries([(q, vocabulary)], (method,), config, memo)[0][method]
            except ValueError as exc:  # e.g. NQC on a one-term corpus
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    predict_quality(spec, base, q, LogProbMemo(mu, index))
                continue
            base_quality = predict_quality(spec, base, q, LogProbMemo(mu, index))
            expected = {
                w: twqp_weight(delta_p(w, q, base, spec, k, mu, index, base_quality))
                for w in dict.fromkeys(vocabulary)
            }
            assert list(weights.items()) == list(expected.items())


class TestLogWorkCounts:
    """Which rows a memo builds while one weigh_queries call runs, and that
    its retrievals and predictors take no logs beside the memo: only RM3's
    document weights, at rm3_mu, reach log_prob_matrix."""

    def test_each_term_row_built_once_per_memo(self, monkeypatch):
        coll = make_synthetic(32)
        config = ExperimentConfig()
        index = build_index(coll.documents, config.analyzer)
        queries, _ = make_queries(coll.topics, index)
        mu = 1000.0
        lists = [(q, retrieve_topk(q, config.k, mu, index)) for q in queries]

        built = Counter()  # (memo, term) -> times handed to the row builder
        real_build = LogProbMemo._build_rows

        def counted(memo, terms):
            built.update((memo, w) for w in terms)
            return real_build(memo, terms)

        monkeypatch.setattr(LogProbMemo, "_build_rows", counted)
        logged = count_log_prob_matrix(monkeypatch)
        memo = LogProbMemo(mu, index)
        expand_and_weigh(lists, 10, tuple(WeightingMethod), config, memo)
        assert set(logged) == {(None, "twqp.relevance")}  # RM3's document weights
        assert max(built.values()) == 1
        assert {m for m, _ in built} == {memo}
        assert set().union(*(q.terms for q, _ in lists)) <= {w for _, w in built}


class TestExperimentMemo:
    """One memo serves run_experiment from the initial lists to the re-ranks."""

    def test_rows_built_once_per_run_and_released_before_the_report(
        self, tmp_path, monkeypatch
    ):
        paths = write_collection(make_synthetic(32), tmp_path / "data")
        built = Counter()  # term -> times handed to the row builder
        memos = []  # weak references to every memo made
        stage = []
        released = []

        real_init, real_build = LogProbMemo.__init__, LogProbMemo._build_rows

        def init(memo, *args, **kwargs):
            memos.append(weakref.ref(memo))
            real_init(memo, *args, **kwargs)

        def build(memo, terms):
            built.update(terms)
            return real_build(memo, terms)

        def staged(name, fn):
            def wrapper(*args, **kwargs):
                stage.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage.pop()

            return wrapper

        def report(*args, **kwargs):
            released.append(all(ref() is None for ref in memos))
            return real_report(*args, **kwargs)

        monkeypatch.setattr(LogProbMemo, "__init__", init)
        monkeypatch.setattr(LogProbMemo, "_build_rows", build)
        logged = count_log_prob_matrix(monkeypatch, stage)
        for name in ("tune_rm3_m", "expand_and_weigh", "rerank_queries"):
            monkeypatch.setattr(twqp.experiment, name, staged(name, getattr(twqp.experiment, name)))
        real_report = twqp.experiment.build_report
        monkeypatch.setattr(twqp.experiment, "build_report", report)
        twqp.experiment.run_experiment(
            ExperimentConfig(
                corpus=str(paths["corpus"]),
                topics=str(paths["topics"]),
                qrels=str(paths["qrels"]),
                output_dir=str(tmp_path / "out"),
            )
        )
        assert len(memos) == 1
        assert built and max(built.values()) == 1
        # the RM3 document weights (at rm3_mu) of tuning and of the expansion
        # are their only logs; the retrievals, predictors and re-ranks read
        # the memo's rows
        assert {key for key in logged if key[0] is not None} == {
            ("tune_rm3_m", "twqp.relevance"),
            ("expand_and_weigh", "twqp.relevance"),
        }
        assert released == [True]
