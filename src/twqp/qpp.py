"""Post-retrieval quality predictors and per-term predictor-style signals.

The list-level predictors (WIG, NQC, ScoreRatio) estimate how good a ranked
list is without relevance judgments; they are the P(.) plugged into the
delta-based term weighting.  The per-term signals (nWIG, SROR) are baseline
weighters read off a single retrieval.

Conventions: retrieval scores are log likelihoods, so ScoreRatio is the
likelihood ratio exp(first - last) and NQC normalizes by the absolute
log-space collection likelihood of the query.  NQC uses the population
standard deviation.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import Index, collection_prob
from .retrieval import (
    LogProbMemo,
    Query,
    RankedList,
    log_prob_matrix,
    retrieve_topk,
    weighted_sum,
)

WIG_DEFAULT_M = 5
NQC_DEFAULT_M = 150
NWIG_DEFAULT_M = 50


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


def predict_wig(
    lst: RankedList,
    q: Query,
    m: int,
    mu: float,
    index: Index,
    memo: LogProbMemo | None = None,
) -> float:
    """Mean log-ratio of document to collection term likelihood over top-m docs.

        (1 / (m * sqrt(|q|))) * sum_{d in top-m} sum_{q_i} log(p_d(q_i) / p_D(q_i))

    |q| is the bag size of the query actually scored (expanded queries use
    their own size).  Out-of-vocabulary terms are skipped with a warning;
    they still count toward |q|.  The log p_d come from log_prob_matrix (or
    the memo at mu) and are added one at a time, document by document and
    term by term in bag order.
    """
    if not lst:
        raise ValueError("WIG is undefined on an empty ranked list")
    m = min(m, len(lst))
    log_pd_collection: dict[str, float] = {}
    for w in set(q.terms):
        p = collection_prob(w, index)
        if p == 0.0:
            warnings.warn(f"WIG: query term {w!r} out of vocabulary; skipped", stacklevel=2)
        else:
            log_pd_collection[w] = math.log(p)
    scored = list(log_pd_collection)
    matrix = log_prob_matrix if memo is None else memo.matrix
    rows = dict(zip(scored, matrix(scored, lst.doc_numbers(index)[:m], mu, index).tolist()))
    total = 0.0
    for d in range(m):
        for w in q.terms:
            if w not in log_pd_collection:
                continue
            total += rows[w][d] - log_pd_collection[w]
    return total / (m * math.sqrt(len(q.terms)))


def predict_nqc(lst: RankedList, q: Query, m: int, index: Index) -> float:
    """Spread of the top-m scores over the collection likelihood of the query.

        sigma(top-m log scores) / |sum_i log p_D(q_i)|

    sigma is the population standard deviation.  Any out-of-vocabulary query
    term leaves the collection likelihood undefined and is an error.
    """
    if not lst:
        raise ValueError("NQC is undefined on an empty ranked list")
    m = min(m, len(lst))
    denom = 0.0
    for w, count in sorted(q.term_counts().items()):
        p = collection_prob(w, index)
        if p == 0.0:
            raise ValueError(f"NQC: query term {w!r} out of vocabulary")
        denom += count * math.log(p)
    if denom == 0.0:
        raise ValueError("NQC: degenerate collection likelihood (log = 0)")
    sigma = float(np.std(lst.score_array()[:m]))
    return sigma / abs(denom)


def score_gap(lst: RankedList) -> float:
    """score_1 - score_last: the log of the ScoreRatio, never overflowing."""
    if not lst:
        raise ValueError("ScoreRatio is undefined on an empty ranked list")
    scores = lst.score_array()
    return float(scores[0]) - float(scores[-1])


def predict_score_ratio(lst: RankedList) -> float:
    """First-to-last likelihood ratio, exp(score_1 - score_last); always >= 1."""
    gap = score_gap(lst)
    if gap > 700.0:
        return math.inf
    return math.exp(gap)


def predict_quality(
    spec: PredictorSpec,
    lst: RankedList,
    q: Query,
    mu: float,
    index: Index,
    memo: LogProbMemo | None = None,
) -> float:
    """Dispatch on predictor kind; the list must be non-empty.  WIG reads
    its log probabilities from the memo at mu, when given."""
    if spec.kind is PredictorKind.WIG:
        return predict_wig(lst, q, spec.effective_m, mu, index, memo)
    if spec.kind is PredictorKind.NQC:
        return predict_nqc(lst, q, spec.effective_m, index)
    return predict_score_ratio(lst)


def nwig_weights(
    terms: Sequence[str],
    lst: RankedList,
    m: int,
    mu: float,
    index: Index,
    memo: LogProbMemo | None = None,
) -> dict[str, float]:
    """Per-term information-gain weights over the top-m docs of a list.

        [ (1/m) sum_{d in top-m} log p_d(w)  -  log p_D(w) ] / ( -log p_D(w) )

    Out-of-vocabulary terms (and the degenerate p_D(w) = 1) get weight 0
    with a warning, since the denominator is undefined.  The logs come from
    one log_prob_matrix over every term (or the memo at mu), added up one
    document at a time in rank order by weighted_sum, as the one-term sum
    does.
    """
    if not lst:
        raise ValueError("nWIG is undefined on an empty ranked list")
    m = min(m, len(lst))
    weights: dict[str, float] = {}
    log_pds: dict[str, float] = {}
    for w in terms:
        weights[w] = 0.0
        p_collection = collection_prob(w, index)
        if p_collection == 0.0:
            warnings.warn(f"nWIG: term {w!r} out of vocabulary; weight 0", stacklevel=2)
            continue
        log_pd = math.log(p_collection)
        if log_pd == 0.0:
            warnings.warn(f"nWIG: term {w!r} has collection probability 1; weight 0", stacklevel=2)
            continue
        log_pds[w] = log_pd
    scored = list(log_pds)
    matrix = log_prob_matrix if memo is None else memo.matrix
    totals = weighted_sum([1.0] * m, matrix(scored, lst.doc_numbers(index)[:m], mu, index).T)
    for w, total in zip(scored, totals.tolist()):
        weights[w] = (total / m - log_pds[w]) / (-log_pds[w])
    return weights


def sror_term(
    w: str,
    q: Query,
    k: int,
    mu: float,
    index: Index,
    base_list: RankedList | None = None,
    memo: LogProbMemo | None = None,
) -> float:
    """Result-list drift when one occurrence of w is dropped from the query.

        1 - |D_q ∩ D_{q-w}| / |D_q|

    Only terms of q itself are valid.  A single-term query gets weight 1
    (removing the only term destroys the query).  base_list, when given,
    must be the depth-k retrieval for q at the same mu; a memo at mu, when
    given, serves the retrievals.
    """
    if w not in q.terms:
        raise ValueError(f"SROR: term {w!r} is not a query term")
    if len(q.terms) == 1:
        return 1.0
    if base_list is None:
        base_list = retrieve_topk(q, k, mu, index, memo)
    if not base_list:
        warnings.warn("SROR: empty base retrieval; weight 0", stacklevel=2)
        return 0.0
    remaining = list(q.terms)
    remaining.remove(w)
    reduced = retrieve_topk(Query(q.query_id, tuple(remaining)), k, mu, index, memo)
    base_docs = set(base_list.doc_numbers(index).tolist())
    overlap = len(base_docs.intersection(reduced.doc_numbers(index).tolist()))
    return 1.0 - overlap / len(base_docs)
