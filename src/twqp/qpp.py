"""Post-retrieval quality predictors.

The list-level predictors (WIG, NQC, ScoreRatio) estimate how good a ranked
list is without relevance judgments; they are the P(.) plugged into the
delta-based term weighting.

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

import numpy as np

from .index import Index, collection_prob
from .retrieval import LogProbMemo, Query, RankedList

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


def predict_wig(lst: RankedList, q: Query, m: int, memo: LogProbMemo) -> float:
    """Mean log-ratio of document to collection term likelihood over top-m docs.

        (1 / (m * sqrt(|q|))) * sum_{d in top-m} sum_{q_i} log(p_d(q_i) / p_D(q_i))

    |q| is the bag size of the query actually scored (expanded queries use
    their own size).  Out-of-vocabulary terms are skipped with a warning;
    they still count toward |q|.  The log p_d come from the memo, at its mu
    over its index, and are added one at a time, document by document and
    term by term in bag order.
    """
    index = memo.index
    terms, _ = q.bag
    if not lst:
        raise ValueError("WIG is undefined on an empty ranked list")
    m = min(m, len(lst))
    log_pd_collection: dict[str, float] = {}
    for w in terms:
        p = collection_prob(w, index)
        if p == 0.0:
            warnings.warn(f"WIG: query term {w!r} out of vocabulary; skipped", stacklevel=2)
        else:
            log_pd_collection[w] = math.log(p)
    scored = list(log_pd_collection)
    rows = dict(zip(scored, memo.matrix(scored, lst.doc_numbers(index)[:m]).tolist()))
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

    sigma is the population standard deviation (population_std, equal to
    np.std bit for bit).  Any out-of-vocabulary query term leaves the
    collection likelihood undefined and is an error.
    """
    terms, counts = q.bag
    if not lst:
        raise ValueError("NQC is undefined on an empty ranked list")
    m = min(m, len(lst))
    denom = 0.0
    for w, count in zip(terms, counts):
        p = collection_prob(w, index)
        if p == 0.0:
            raise ValueError(f"NQC: query term {w!r} out of vocabulary")
        denom += count * math.log(p)
    if denom == 0.0:
        raise ValueError("NQC: degenerate collection likelihood (log = 0)")
    return population_std(lst.score_array()[:m]) / abs(denom)


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
    the memo."""
    if spec.kind is PredictorKind.WIG:
        return predict_wig(lst, q, spec.effective_m, memo)
    if spec.kind is PredictorKind.NQC:
        return predict_nqc(lst, q, spec.effective_m, memo.index)
    return predict_score_ratio(lst)
