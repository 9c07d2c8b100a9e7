"""Term weighting: quality-delta sigmoid weights and the baseline weighters.

The central quantity is the delta of a candidate w for a query q: retrieve
once for the query, once for the query expanded with w, run the same
quality predictor on both lists, and take the difference.  The sigmoid of
that delta is the term's weight, so terms predicted to help get weight > 0.5
and terms predicted to hurt get weight < 0.5.

For a candidate vocabulary V this costs exactly 1 + |V| retrievals per query:
the base quality is computed once and reused for every w, and the TWQP
predictors weighed together share those retrievals.  Every weighting
retrieval, SROR's leave-one-out lists included, goes through this module's
one ``retrieve_topk`` name, so patching that name counts them all.

Every list a weighting call scores is at one mu and over the same few
hundred terms, so the call reads its log probabilities from one
``LogProbMemo``: each term's row is built once, the first time any
retrieval or predictor needs it, and every later score gathers from it.
``weigh_queries`` takes the memo and reads mu and the index from it; an
experiment passes the one that its tuning and re-ranking at the same mu
read, so those stages share rows.  The one-shot ``weigh_terms`` takes mu
and the index, checks them and builds a memo.

A call reads its retrieval depth k and the predictors' cutoff qpp_m from an
ExperimentConfig.  Every weighter's output is a plain term -> weight dict,
the same kind of map as the RM3 model, and re-ranking takes it as it is.
"""

from __future__ import annotations

import enum
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

from .index import Index, collection_prob
from .qpp import PredictorKind, PredictorSpec, predict_batch, predict_score_ratio, score_gap
from .retrieval import (
    LogProbMemo,
    Query,
    RankedList,
    add_up,
    check_positive_mu,
    expand_query,
    retrieve_topk,
    weighted_sum,
)

if TYPE_CHECKING:  # config imports WeightingMethod from here
    from .config import ExperimentConfig

NWIG_DEFAULT_M = 50


class WeightingMethod(enum.Enum):
    TWQP_WIG = "TWQP(WIG)"
    TWQP_NQC = "TWQP(NQC)"
    TWQP_SCORE_RATIO = "TWQP(ScoreRatio)"
    NWIG = "nWIG"
    SCORE_RATIO_NORM = "ScoreRatio"
    SROR = "SROR"

    @classmethod
    def from_string(cls, name: str) -> "WeightingMethod":
        for method in cls:
            if method.value.lower() == name.strip().lower():
                return method
        raise ValueError(f"unknown weighting method {name!r}")


_TWQP_PREDICTOR = {
    WeightingMethod.TWQP_WIG: PredictorKind.WIG,
    WeightingMethod.TWQP_NQC: PredictorKind.NQC,
    WeightingMethod.TWQP_SCORE_RATIO: PredictorKind.SCORE_RATIO,
}


def twqp_weight(delta: float) -> float:
    """Logistic weight 1 / (1 + exp(-delta)); in (0,1) for finite delta."""
    if math.isnan(delta):
        raise ValueError("delta is NaN")
    if delta >= 0:
        return 1.0 / (1.0 + math.exp(-delta))
    e = math.exp(delta)
    return e / (1.0 + e)


def nwig_weights(
    terms: Sequence[str], lst: RankedList, m: int, memo: LogProbMemo
) -> dict[str, float]:
    """Per-term information-gain weights over the top-m docs of a list.

        [ (1/m) sum_{d in top-m} log p_d(w)  -  log p_D(w) ] / ( -log p_D(w) )

    Out-of-vocabulary terms (and the degenerate p_D(w) = 1) get weight 0
    with a warning, since the denominator is undefined.  The logs come from
    one memo gather over every term, at the memo's mu over its index, added
    up one document at a time in rank order by weighted_sum, as the
    one-term sum does.
    """
    index = memo.index
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
    totals = weighted_sum([1.0] * m, memo.matrix(scored, lst.doc_numbers(index)[:m]).T)
    for w, total in zip(scored, totals.tolist()):
        weights[w] = (total / m - log_pds[w]) / (-log_pds[w])
    return weights


def sror_term(
    w: str, q: Query, k: int, memo: LogProbMemo, base_list: RankedList | None = None
) -> float:
    """Result-list drift when one occurrence of w is dropped from the query.

        1 - |D_q ∩ D_{q-w}| / |D_q|

    Only terms of q itself are valid.  A single-term query gets weight 1
    (removing the only term destroys the query).  Retrievals run at the
    memo's mu over its index and read their log probabilities from it;
    base_list, when given, must be the depth-k retrieval for q there.
    """
    mu, index = memo.mu, memo.index
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


def weigh_terms(
    q: Query,
    vocabulary: Sequence[str],
    method: WeightingMethod,
    mu: float,
    config: ExperimentConfig,
    index: Index,
) -> dict[str, float]:
    """term -> weight over the candidate vocabulary under the chosen method.

    SROR ignores the vocabulary and weighs the query's own distinct terms.
    ScoreRatio weights come from one single-term retrieval per candidate,
    sum-normalized; an empty single-term retrieval contributes 0.  mu must
    pass check_positive_mu.
    """
    check_positive_mu(mu, "weighting")
    memo = LogProbMemo(mu, index)
    return weigh_queries([(q, vocabulary)], (method,), config, memo)[0][method]


def weigh_queries(
    pairs: Sequence[tuple[Query, Sequence[str]]],
    methods: Sequence[WeightingMethod],
    config: ExperimentConfig,
    memo: LogProbMemo,
) -> list[dict[WeightingMethod, dict[str, float]]]:
    """One {method: weights} per (query, vocabulary) pair, sharing retrievals.

    Each map equals the one weigh_terms gives for its method alone.  Per
    query, one base retrieval serves nWIG, SROR and every TWQP method, and
    each q+w list is retrieved once, one retrieve_topk call each; each TWQP
    predictor then scores the base list and all of the query's q+w lists
    as one batch (predict_batch).  A single-term ScoreRatio depends only on
    (w, mu, k), so each distinct w is retrieved once for all the queries of
    the call.  Every retrieval and predictor of the call runs at the memo's
    mu over its index and reads its log probabilities from the memo.

    A TWQP weight is twqp_weight(quality of q+w - quality of q).  When both
    ScoreRatios overflow to inf, that delta is +inf, -inf or 0 by the sign
    of gap_expanded - gap_base, so the weight is 1.0, 0.0 or 0.5.

    Every list is retrieved at depth config.k, and config.qpp_m overrides
    the TWQP predictors' default cutoff.
    """
    mu, index, k = memo.mu, memo.index, config.k
    predictors = [
        (m, PredictorSpec(_TWQP_PREDICTOR[m], config.qpp_m))
        for m in methods
        if m in _TWQP_PREDICTOR
    ]
    needs_list = [m for m in methods if m is WeightingMethod.NWIG or m in _TWQP_PREDICTOR]
    sror = WeightingMethod.SROR in methods
    single_ratios: dict[str, float] = {}
    weighed = []
    for q, vocabulary in pairs:
        if not vocabulary and any(m is not WeightingMethod.SROR for m in methods):
            raise ValueError("candidate vocabulary is empty")
        candidates = list(dict.fromkeys(vocabulary))
        base = None
        if needs_list or sror:
            base = retrieve_topk(q, k, mu, index, memo)
            if needs_list and not base:
                raise ValueError(
                    f"query {q.query_id!r} retrieved nothing; {needs_list[0].value} undefined"
                )
        weights: dict[WeightingMethod, dict[str, float]] = {m: {} for m in methods}
        if sror:
            weights[WeightingMethod.SROR] = {
                t: sror_term(t, q, k, memo, base) for t in sorted(set(q.terms))
            }
        if WeightingMethod.SCORE_RATIO_NORM in methods:
            for w in candidates:
                if w not in single_ratios:
                    single = retrieve_topk(Query(q.query_id, (w,)), k, mu, index, memo)
                    single_ratios[w] = predict_score_ratio(single) if single else 0.0
            total = add_up(single_ratios[w] for w in candidates)
            if total == 0.0:
                warnings.warn(
                    "ScoreRatio: all candidate retrievals empty; zero table", stacklevel=2
                )
            weights[WeightingMethod.SCORE_RATIO_NORM] = {
                w: single_ratios[w] / (total or 1.0) for w in candidates
            }
        if WeightingMethod.NWIG in methods:
            weights[WeightingMethod.NWIG] = nwig_weights(candidates, base, NWIG_DEFAULT_M, memo)
        if predictors:
            expanded = [expand_query(q, w) for w in candidates]
            expanded_lists = [retrieve_topk(e, k, mu, index, memo) for e in expanded]
            for m, predictor in predictors:
                base_quality, *qualities = predict_batch(
                    predictor, [base, *expanded_lists], [q, *expanded], memo
                )
                for w, expanded_list, quality in zip(candidates, expanded_lists, qualities):
                    if quality == base_quality == math.inf:
                        change = score_gap(expanded_list) - score_gap(base)
                        delta = change * math.inf if change else 0.0
                    else:
                        delta = quality - base_quality
                    weights[m][w] = twqp_weight(delta)
        weighed.append(weights)
    return weighed


def dump_weight_tables(
    rows: Iterable[tuple[str, str, dict[str, float]]], out: TextIO | str | Path
) -> None:
    """Lines of `query_id label term weight` for each (query id, label,
    term -> weight) row, 8 decimal places, terms sorted."""
    lines = [
        f"{query_id} {label} {term} {weights[term]:.8f}"
        for query_id, label, weights in rows
        for term in sorted(weights)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(out, (str, Path)):
        Path(out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
