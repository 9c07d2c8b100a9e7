"""Term weighting: quality-delta sigmoid weights and the baseline weighters.

The central quantity is delta_p(w; q): retrieve once for the query, once for
the query expanded with w, run the same quality predictor on both lists, and
take the difference.  The sigmoid of that delta is the term's weight, so
terms predicted to help get weight > 0.5 and terms predicted to hurt get
weight < 0.5.

For a candidate vocabulary V this costs exactly 1 + |V| retrievals per query:
the base quality is computed once and reused for every w, and the TWQP
predictors weighed together share those retrievals.  All retrievals go
through this module's ``retrieve_topk`` name so the count can be instrumented.

Every list a weighting call scores is at one mu and over the same few
hundred terms, so the call keeps one ``LogProbMemo``: each term's log
probabilities are computed once, the first time any retrieval or predictor
of the call needs them, and every later score gathers them from it.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .index import Index
from .qpp import (
    NWIG_DEFAULT_M,
    PredictorKind,
    PredictorSpec,
    nwig_weights,
    predict_quality,
    predict_score_ratio,
    score_gap,
    sror_term,
)
from .retrieval import LogProbMemo, Query, RankedList, expand_query, retrieve_topk


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


@dataclass(frozen=True)
class WeightingParams:
    """Retrieval depth and smoothing shared by all weighters.

    predictor_m overrides the predictor's default cutoff for TWQP methods.
    mu must be positive and finite: at mu = 0 a q+w list holds -inf scores,
    which leave the predictor deltas undefined.
    """

    mu: float
    k: int = 1000
    predictor_m: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"weighting requires mu > 0 and finite, got {self.mu}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class TermWeightTable:
    """term -> weight for one query under one method.

    method is None for diagnostic tables (e.g. the query-indicator table).
    """

    query_id: str
    method: WeightingMethod | None
    weights: dict[str, float]

    @property
    def method_label(self) -> str:
        return self.method.value if self.method is not None else "indicator"


def delta_p(
    w: str,
    q: Query,
    base_list: RankedList,
    predictor: PredictorSpec,
    k: int,
    mu: float,
    index: Index,
    base_quality: float | None = None,
) -> float:
    """Predicted-quality change from expanding q with w.

    base_list must be the non-empty depth-k retrieval for q at the same mu
    (the q+w list, a superset of its candidates, is then non-empty too).
    Passing base_quality skips re-predicting the base list (callers
    weighting many terms compute it once).  When both ScoreRatios overflow
    to inf, the delta is +inf, -inf or 0 by the sign of gap_expanded -
    gap_base, which is the sign of exp(gap_expanded) - exp(gap_base); the
    weight is then 1.0, 0.0 or 0.5.
    """
    if base_quality is None:
        base_quality = predict_quality(predictor, base_list, q, mu, index)
    expanded = expand_query(q, w)
    expanded_list = retrieve_topk(expanded, k, mu, index)
    return _quality_delta(
        predictor, base_list, base_quality, expanded, expanded_list, mu, index
    )


def _quality_delta(
    predictor: PredictorSpec,
    base_list: RankedList,
    base_quality: float,
    expanded: Query,
    expanded_list: RankedList,
    mu: float,
    index: Index,
    memo: LogProbMemo | None = None,
) -> float:
    """delta_p for an expanded list already retrieved."""
    expanded_quality = predict_quality(predictor, expanded_list, expanded, mu, index, memo)
    if expanded_quality == base_quality == math.inf:
        gap_change = score_gap(expanded_list) - score_gap(base_list)
        return gap_change * math.inf if gap_change else 0.0
    return expanded_quality - base_quality


def twqp_weight(delta: float) -> float:
    """Logistic weight 1 / (1 + exp(-delta)); in (0,1) for finite delta."""
    if math.isnan(delta):
        raise ValueError("delta is NaN")
    if delta >= 0:
        return 1.0 / (1.0 + math.exp(-delta))
    e = math.exp(delta)
    return e / (1.0 + e)


def weigh_terms(
    q: Query,
    vocabulary: Sequence[str],
    method: WeightingMethod,
    params: WeightingParams,
    index: Index,
) -> TermWeightTable:
    """Weight table over the candidate vocabulary under the chosen method.

    SROR ignores the vocabulary and weighs the query's own distinct terms.
    ScoreRatio weights come from one single-term retrieval per candidate,
    sum-normalized; an empty single-term retrieval contributes 0.
    """
    return weigh_queries([(q, vocabulary)], (method,), params, index)[0][method]


def weigh_queries(
    pairs: Sequence[tuple[Query, Sequence[str]]],
    methods: Sequence[WeightingMethod],
    params: WeightingParams,
    index: Index,
) -> list[dict[WeightingMethod, TermWeightTable]]:
    """One {method: table} per (query, vocabulary) pair, sharing retrievals.

    Each table equals the one weigh_terms gives for its method alone.  Per
    query, one base retrieval serves nWIG, SROR and every TWQP method, and
    each q+w list is retrieved once and scored by every TWQP predictor.  A
    single-term ScoreRatio depends only on (w, mu, k), so each distinct w
    is retrieved once for all the queries of the call.  Every retrieval and
    predictor of the call reads its log probabilities from one memo.
    """
    single_ratios: dict[str, float] = {}
    memo = LogProbMemo(params.mu, index)
    return [
        _weigh_query(q, vocabulary, methods, params, index, single_ratios, memo)
        for q, vocabulary in pairs
    ]


def _weigh_query(
    q: Query,
    vocabulary: Sequence[str],
    methods: Sequence[WeightingMethod],
    params: WeightingParams,
    index: Index,
    single_ratios: dict[str, float],
    memo: LogProbMemo,
) -> dict[WeightingMethod, TermWeightTable]:
    k, mu = params.k, params.mu
    if not vocabulary and any(m is not WeightingMethod.SROR for m in methods):
        raise ValueError("candidate vocabulary is empty")
    candidates = list(dict.fromkeys(vocabulary))
    needs_list = [m for m in methods if m is WeightingMethod.NWIG or m in _TWQP_PREDICTOR]
    if needs_list or WeightingMethod.SROR in methods:
        base = retrieve_topk(q, k, mu, index, memo)
        if needs_list and not base:
            raise ValueError(
                f"query {q.query_id!r} retrieved nothing; {needs_list[0].value} undefined"
            )

    weights: dict[WeightingMethod, dict[str, float]] = {}
    if WeightingMethod.SROR in methods:
        weights[WeightingMethod.SROR] = {
            t: sror_term(t, q, k, mu, index, base_list=base, memo=memo)
            for t in sorted(set(q.terms))
        }
    if WeightingMethod.SCORE_RATIO_NORM in methods:
        raw: dict[str, float] = {}
        for w in candidates:
            if w not in single_ratios:
                single = retrieve_topk(Query(q.query_id, (w,)), k, mu, index, memo)
                single_ratios[w] = predict_score_ratio(single) if single else 0.0
            raw[w] = single_ratios[w]
        total = sum(raw.values())
        if total == 0.0:
            warnings.warn("ScoreRatio: all candidate retrievals empty; zero table", stacklevel=3)
        else:
            raw = {w: v / total for w, v in raw.items()}
        weights[WeightingMethod.SCORE_RATIO_NORM] = raw
    if WeightingMethod.NWIG in methods:
        weights[WeightingMethod.NWIG] = nwig_weights(
            candidates, base, NWIG_DEFAULT_M, mu, index, memo
        )

    predictors = {
        m: PredictorSpec(_TWQP_PREDICTOR[m], params.predictor_m)
        for m in methods
        if m in _TWQP_PREDICTOR
    }
    if predictors:
        base_quality = {
            m: predict_quality(p, base, q, mu, index, memo) for m, p in predictors.items()
        }
        for m in predictors:
            weights[m] = {}
        for w in candidates:
            expanded = expand_query(q, w)
            expanded_list = retrieve_topk(expanded, k, mu, index, memo)
            for m, predictor in predictors.items():
                delta = _quality_delta(
                    predictor, base, base_quality[m], expanded, expanded_list, mu, index, memo
                )
                weights[m][w] = twqp_weight(delta)
    return {m: TermWeightTable(q.query_id, m, weights[m]) for m in methods}


def query_indicator_table(q: Query) -> TermWeightTable:
    """Each query term weighted by its occurrence count, everything else 0.

    Feeding this table to the weighted re-scorer reproduces plain query
    likelihood, which is the sanity anchor for the re-ranking math.
    """
    weights = {w: float(c) for w, c in sorted(q.term_counts().items())}
    return TermWeightTable(q.query_id, None, weights)


def dump_weight_tables(
    tables: Iterable[TermWeightTable], out: TextIO | str | Path
) -> None:
    """Lines of `query_id method term weight`, 8 decimal places, terms sorted."""
    lines = []
    for table in tables:
        for term in sorted(table.weights):
            lines.append(
                f"{table.query_id} {table.method_label} {term} {table.weights[term]:.8f}"
            )
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(out, (str, Path)):
        Path(out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
