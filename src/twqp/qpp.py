"""Post-retrieval quality predictors.

The list-level predictors (WIG, NQC, ScoreRatio) estimate how good a ranked
list is without relevance judgments; they are the P(.) plugged into the
delta-based term weighting.

Conventions: retrieval scores are log likelihoods, so ScoreRatio is the
likelihood ratio exp(first - last) and NQC normalizes by the absolute
log-space collection likelihood of the query.  NQC uses the population
standard deviation.

WIG and NQC each have one implementation, in batch form (wig_batch,
nqc_batch): a weighting call scores a query's base list and all of its q+w
lists in one pass, taking each distinct term's log p_D once, and each
list's value is the float the one-list computation gives; one list's WIG
or NQC is a batch of one (predict_nqc).  predict_batch dispatches on a
PredictorSpec, and predict_quality is its batch of one; ScoreRatio scores
one list at a time.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import Index, collection_prob
from .retrieval import LogProbMemo, Query, RankedList, add_up, weighted_sum

WIG_DEFAULT_M = 5
NQC_DEFAULT_M = 150


class PredictorKind(enum.Enum):
    WIG = "WIG"
    NQC = "NQC"
    SCORE_RATIO = "ScoreRatio"


_DEFAULT_M = {
    PredictorKind.WIG: WIG_DEFAULT_M,
    PredictorKind.NQC: NQC_DEFAULT_M,
    PredictorKind.SCORE_RATIO: None,
}


@dataclass(frozen=True)
class PredictorSpec:
    """Predictor choice plus its cutoff depth; m=None means the default."""

    kind: PredictorKind
    m: int | None = None

    def __post_init__(self) -> None:
        if self.m is not None and self.m < 1:
            raise ValueError(f"cutoff m must be >= 1, got {self.m}")

    @property
    def effective_m(self) -> int | None:
        return self.m if self.m is not None else _DEFAULT_M[self.kind]


def wig_batch(
    lists: Sequence[RankedList], queries: Sequence[Query], m: int, memo: LogProbMemo
) -> list[float]:
    """WIG of each list, scored for its query, in one pass: the mean
    log-ratio of document to collection term likelihood over its top-m docs,

        (1 / (m * sqrt(|q|))) * sum_{d in top-m} sum_{q_i} log(p_d(q_i) / p_D(q_i))

    |q| is the bag size of the query actually scored (expanded queries use
    their own size).  Out-of-vocabulary terms are skipped with a warning;
    they still count toward |q|.

    Each distinct term's log p_D is taken once per batch, and each list's
    top document numbers are read once.  The log p_d of every list's
    in-vocabulary terms at its top-m documents come from one memo gather,
    at the memo's mu over its index, over the union of the terms and of the
    documents.  The terms (log p_d(w) - log p_D(w)) are added one step at a
    time over the whole batch, as vectors, in the one-list loop's order:
    document by document in rank order, and term by term in query order
    within a document.  A list whose top or bag is shorter than another's
    adds 0.0 at the steps it lacks, which leaves its sum unchanged.  The
    out-of-vocabulary warning is given for each list.
    """
    if not lists:
        return []
    index = memo.index
    row_of: dict[str, int | None] = {}  # term -> its row of the gather, None out of vocabulary
    log_pds: list[float] = []  # log p_D of each row's term
    tops, positions, bag_sizes = [], [], []  # positions: each list's rows, in query order
    for lst, q in zip(lists, queries):
        if not lst:
            raise ValueError("WIG is undefined on an empty ranked list")
        for w in q.bag[0]:
            if w not in row_of:
                p = collection_prob(w, index)
                row_of[w] = len(log_pds) if p != 0.0 else None
                if p != 0.0:
                    log_pds.append(math.log(p))
            if row_of[w] is None:
                warnings.warn(f"WIG: query term {w!r} out of vocabulary; skipped", stacklevel=3)
        rows = list(map(row_of.__getitem__, q.terms))
        if None in rows:
            rows = [r for r in rows if r is not None]
        positions += rows
        bag_sizes.append(len(rows))
        tops.append(lst.doc_numbers(index)[:m])
    sizes = [top.size for top in tops]
    docs, doc_column = np.unique(np.concatenate(tops), return_inverse=True)
    terms = [w for w, r in row_of.items() if r is not None]  # in row order
    gains = memo.matrix(terms, docs) - np.array(log_pds)[:, None]
    # Each list's (document, term) steps, padded to the batch's largest
    # grid.  Read in row-major order, the True cells of in_top and in_bag
    # are the lists' top documents and in-vocabulary terms, in turn.
    in_top = np.arange(max(sizes)) < np.array(sizes)[:, None]
    in_bag = np.arange(max(bag_sizes)) < np.array(bag_sizes)[:, None]
    doc_cells = np.zeros(in_top.shape, dtype=np.intp)
    doc_cells[in_top] = doc_column
    term_cells = np.zeros(in_bag.shape, dtype=np.intp)
    term_cells[in_bag] = positions
    steps = np.where(
        in_top[:, :, None] & in_bag[:, None, :],
        gains[term_cells[:, None, :], doc_cells[:, :, None]],
        0.0,
    ).reshape(len(lists), -1)
    totals = weighted_sum(np.ones(steps.shape[1]), steps.T)
    bags = np.array([len(q.terms) for q in queries])
    return (totals / (np.array(sizes) * np.sqrt(bags))).tolist()


def nqc_batch(
    lists: Sequence[RankedList], queries: Sequence[Query], m: int, index: Index
) -> list[float]:
    """NQC of each list, scored for its query: the spread of the top-m
    scores over the collection likelihood of the query,

        sigma(top-m log scores) / |sum_i log p_D(q_i)|

    sigma is the population standard deviation (population_std, equal to
    np.std bit for bit).  Each distinct term's log p_D is taken once per
    batch, and each list's sum adds count * log p_D over its bag in order
    from 0.0 (add_up).  An empty list, an out-of-vocabulary query term,
    which leaves the collection likelihood undefined, or a sum of 0.0 is
    an error, checked in that order list by list.
    """
    log_pd: dict[str, float | None] = {}  # term -> log p_D(w), None out of vocabulary
    out = []
    for lst, q in zip(lists, queries):
        if not lst:
            raise ValueError("NQC is undefined on an empty ranked list")
        terms, counts = q.bag
        for w in terms:
            if w not in log_pd:
                p = collection_prob(w, index)
                log_pd[w] = math.log(p) if p != 0.0 else None
            if log_pd[w] is None:
                raise ValueError(f"NQC: query term {w!r} out of vocabulary")
        denom = add_up(map(operator.mul, counts, map(log_pd.__getitem__, terms)))
        if denom == 0.0:
            raise ValueError("NQC: degenerate collection likelihood (log = 0)")
        out.append(population_std(lst.score_array()[:m]) / abs(denom))
    return out


def predict_nqc(lst: RankedList, q: Query, m: int, index: Index) -> float:
    """NQC of one list: nqc_batch of one."""
    return nqc_batch([lst], [q], m, index)[0]


def population_std(x: np.ndarray) -> float:
    """float(np.std(x)) bit for bit, without np.std's Python wrapper.

    np.std takes the mean with np.add.reduce and a division by the count,
    the squared deviations' np.add.reduce over the count, and a correctly
    rounded square root; so does this, with the same floats."""
    deviations = x - np.add.reduce(x) / x.size
    return math.sqrt(np.add.reduce(deviations * deviations) / x.size)


def score_gap(lst: RankedList) -> float:
    """score_1 - score_last: the log of the ScoreRatio, never overflowing.
    A top score of -inf, from a query term in no document, is an error."""
    if not lst:
        raise ValueError("ScoreRatio is undefined on an empty ranked list")
    scores = lst.score_array()
    if scores[0] == -math.inf:
        raise ValueError(
            "ScoreRatio is undefined when the top score is -inf: a query term is in no document"
        )
    return float(scores[0]) - float(scores[-1])


def predict_score_ratio(lst: RankedList) -> float:
    """First-to-last likelihood ratio, exp(score_1 - score_last); always >= 1."""
    gap = score_gap(lst)
    if gap > 700.0:
        return math.inf
    return math.exp(gap)


def predict_quality(
    spec: PredictorSpec, lst: RankedList, q: Query, memo: LogProbMemo
) -> float:
    """Dispatch on predictor kind; the list must be non-empty and scored
    at the memo's mu over its index.  WIG reads its log probabilities from
    the memo.  predict_batch of one list."""
    return predict_batch(spec, [lst], [q], memo)[0]


def predict_batch(
    spec: PredictorSpec, lists: Sequence[RankedList], queries: Sequence[Query], memo: LogProbMemo
) -> list[float]:
    """predict_quality of each (list, query) pair: WIG and NQC score the
    batch in one pass, ScoreRatio one list at a time."""
    if spec.kind is PredictorKind.WIG:
        return wig_batch(lists, queries, spec.effective_m, memo)
    if spec.kind is PredictorKind.NQC:
        return nqc_batch(lists, queries, spec.effective_m, memo.index)
    return [predict_score_ratio(lst) for lst in lists]
