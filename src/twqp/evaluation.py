"""Effectiveness measures, significance testing, and parameter sweeps.

Measures follow the usual TREC conventions: precision at a fixed cutoff
divides by the cutoff even for short runs, average precision divides by the
number of judged-relevant documents, reciprocal rank reads the full list.
Queries with no relevant documents cannot be scored by AP/RR and are
excluded from aggregation (callers flag them).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np
from scipy import stats

from .config import ExperimentConfig
from .index import Index
from .relevance import build_rm3_grid, restrict_top_n
from .rerank import RerankConfig, rerank_many
from .retrieval import Query, RankedList, retrieve_grid


class Qrels:
    """Relevance judgments; grade >= 1 counts as relevant."""

    def __init__(self, judgments: dict[str, dict[str, int]]):
        self.judgments = judgments

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.judgments.get(query_id, {}).get(doc_id, 0)

    def is_relevant(self, query_id: str, doc_id: str) -> bool:
        return self.grade(query_id, doc_id) >= 1

    def relevant_docs(self, query_id: str) -> set[str]:
        return {d for d, g in self.judgments.get(query_id, {}).items() if g >= 1}

    def relevant_count(self, query_id: str) -> int:
        return len(self.relevant_docs(query_id))

    @property
    def query_ids(self) -> list[str]:
        return sorted(self.judgments)


def load_qrels(path: str | Path) -> Qrels:
    """TREC qrels: `query_id 0 doc_id grade`, whitespace-separated."""
    judgments: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}: malformed qrels line {lineno}")
            qid, _, doc_id, grade = parts
            judgments.setdefault(qid, {})
            if doc_id in judgments[qid]:
                raise ValueError(
                    f"{path}: duplicate judgment for ({qid}, {doc_id}) at line {lineno}"
                )
            judgments[qid][doc_id] = int(grade)
    return Qrels(judgments)


def load_topics(path: str | Path) -> list[tuple[str, str]]:
    """Tab-separated `query_id<TAB>title` lines."""
    topics = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: malformed topic line {lineno} (no tab)")
            qid, title = line.split("\t", 1)
            topics.append((qid, title))
    return topics


# ---------------------------------------------------------------------------
# Per-query measures
# ---------------------------------------------------------------------------


def precision_at(run: RankedList, qrels: Qrels, cutoff: int = 10) -> float:
    """Relevant fraction of the top-cutoff; denominator is always cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    relevant = qrels.relevant_docs(run.query_id)
    hits = sum(1 for doc_id in run.doc_ids[:cutoff] if doc_id in relevant)
    return hits / cutoff


def average_precision(run: RankedList, qrels: Qrels, depth: int = 1000) -> float:
    """Mean of precision at each relevant retrieved rank, over R."""
    relevant = qrels.relevant_docs(run.query_id)
    if not relevant:
        raise ValueError(f"query {run.query_id!r} has no relevant documents")
    hits = 0
    acc = 0.0
    for rank, doc_id in enumerate(run.doc_ids[:depth], start=1):
        if doc_id in relevant:
            hits += 1
            acc += hits / rank
    return acc / len(relevant)


def reciprocal_rank(run: RankedList, qrels: Qrels) -> float:
    """1 / rank of the first relevant document; 0 when none is retrieved."""
    relevant = qrels.relevant_docs(run.query_id)
    for rank, doc_id in enumerate(run.doc_ids, start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


def robustness_index(
    method_values: Sequence[float], baseline_values: Sequence[float]
) -> float:
    """(N+ - N-) / N over paired per-query values; ties count in neither."""
    if len(method_values) != len(baseline_values):
        raise ValueError("paired value vectors differ in length")
    if not method_values:
        raise ValueError("empty query set")
    better = sum(1 for a, b in zip(method_values, baseline_values) if a > b)
    worse = sum(1 for a, b in zip(method_values, baseline_values) if a < b)
    return (better - worse) / len(method_values)


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-tailed p-value of the paired t statistic with n-1 df.

    All-zero differences give p = 1.0 by convention.  Zero variance with a
    nonzero mean makes t unbounded; the p-value is reported as 0.0 with a
    warning.
    """
    if len(a) != len(b):
        raise ValueError("paired value vectors differ in length")
    n = len(a)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if np.all(diffs == 0.0):
        return 1.0
    sd = float(diffs.std(ddof=1))
    mean = float(diffs.mean())
    if sd == 0.0:
        warnings.warn("zero-variance nonzero-mean differences; p-value 0", stacklevel=2)
        return 0.0
    t = mean / (sd / math.sqrt(n))
    return 2.0 * float(stats.t.sf(abs(t), n - 1))


# ---------------------------------------------------------------------------
# Multi-method reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryMeasures:
    """p@10, AP and RR for one query; AP/RR are None when the query has
    no relevant documents (it is excluded from those aggregates)."""

    p10: float
    ap: float | None
    rr: float | None


@dataclass(frozen=True)
class EvalReport:
    per_query: dict[str, dict[str, QueryMeasures]]
    aggregates: dict[str, dict[str, float]]
    significance: dict[str, dict[tuple[str, str], float]]
    ri: dict[str, float]
    baseline: str
    excluded: tuple[str, ...]


def build_report(
    runs: dict[str, dict[str, RankedList]],
    qrels: Qrels,
    baseline: str,
    depth: int = 1000,
) -> EvalReport:
    """Per-query and aggregate measures for several methods over one query set.

    All methods must cover the same queries.  Pairwise significance is the
    paired two-tailed t-test per measure; RI compares each method's p@10
    against the named baseline method.
    """
    methods = list(runs)
    if baseline not in runs:
        raise ValueError(f"baseline {baseline!r} has no runs")
    query_ids = sorted(runs[methods[0]])
    for method in methods[1:]:
        if sorted(runs[method]) != query_ids:
            raise ValueError(f"method {method!r} covers a different query set")
    if not query_ids:
        raise ValueError("no queries to evaluate")
    excluded = tuple(q for q in query_ids if qrels.relevant_count(q) == 0)
    eligible = [q for q in query_ids if qrels.relevant_count(q) > 0]
    if not eligible:
        raise ValueError("every query has zero relevant documents")

    per_query: dict[str, dict[str, QueryMeasures]] = {}
    for method in methods:
        per_query[method] = {}
        for qid in query_ids:
            run = runs[method][qid]
            scorable = qrels.relevant_count(qid) > 0
            per_query[method][qid] = QueryMeasures(
                p10=precision_at(run, qrels, 10),
                ap=average_precision(run, qrels, depth) if scorable else None,
                rr=reciprocal_rank(run, qrels) if scorable else None,
            )

    def vector(method: str, measure: str) -> list[float]:
        if measure == "p10":
            return [per_query[method][q].p10 for q in query_ids]
        return [getattr(per_query[method][q], measure) for q in eligible]

    aggregates = {
        method: {
            measure: sum(vector(method, measure)) / len(vector(method, measure))
            for measure in ("p10", "ap", "rr")
        }
        for method in methods
    }

    significance: dict[str, dict[tuple[str, str], float]] = {m: {} for m in ("p10", "ap", "rr")}
    for measure in significance:
        for i, a in enumerate(methods):
            for b in methods[i + 1 :]:
                va, vb = vector(a, measure), vector(b, measure)
                if len(va) < 2:
                    continue
                p = paired_ttest(va, vb)
                significance[measure][(a, b)] = p
                significance[measure][(b, a)] = p

    ri = {
        method: robustness_index(vector(method, "p10"), vector(baseline, "p10"))
        for method in methods
    }
    return EvalReport(per_query, aggregates, significance, ri, baseline, excluded)


# ---------------------------------------------------------------------------
# Parameter sweeps (maximize mean AP; ties go to the smaller value)
# ---------------------------------------------------------------------------


def _mean_ap(
    runs: Iterable[RankedList], qrels: Qrels, depth: int
) -> float:
    values = []
    for run in runs:
        if qrels.relevant_count(run.query_id) == 0:
            continue
        values.append(average_precision(run, qrels, depth))
    if not values:
        raise ValueError("no scorable queries (every query has zero relevant docs)")
    return sum(values) / len(values)


_Value = TypeVar("_Value", int, float)


def _best_on_grid(grid: Iterable[_Value], mean_ap: Callable[[_Value], float]) -> _Value:
    """The smallest grid value with the highest mean AP (max keeps the first)."""
    return max(sorted(grid), key=mean_ap)


def tune_mu(
    queries: Sequence[Query], qrels: Qrels, config: ExperimentConfig, index: Index
) -> float:
    """Smoothing mass in config.mu_grid maximizing mean AP of the depth-k runs.

    Each query's candidates are gathered once for the whole grid
    (retrieve_grid); one grid point's lists are alive at a time.
    """
    if not config.mu_grid:
        raise ValueError("empty mu grid")
    k = config.k
    grid = retrieve_grid(queries, k, sorted(config.mu_grid), index)
    mean_aps = {mu: _mean_ap(lists, qrels, k) for mu, lists in grid}
    return _best_on_grid(config.mu_grid, mean_aps.__getitem__)


def tune_rm3_m(
    lists: Sequence[tuple[Query, RankedList]],
    qrels: Qrels,
    mu: float,
    config: ExperimentConfig,
    index: Index,
) -> int:
    """Feedback depth in config.rm3_m_grid maximizing mean AP of the re-ranked runs.

    lists pairs each query with its depth-k retrieval at mu, the
    already-tuned retrieval smoothing; queries with an empty list are
    skipped.  The relevance model is the one the experiment weighs with:
    document weights at config.rm3_mu, interpolation config.rm3_lambda,
    clipped to its top config.rm3_n terms.
    """
    if not config.rm3_m_grid:
        raise ValueError("empty m grid")
    cfg = RerankConfig(mu=mu, rerank_depth=config.rerank_depth, k=config.k)
    ms = sorted(config.rm3_m_grid)
    runs: list[list[RankedList]] = [[] for _ in ms]
    for q, base in lists:
        if not base:
            continue
        depths = [min(m, len(base)) for m in ms]
        models = build_rm3_grid(q, base, depths, config.rm3_mu, config.rm3_lambda, index)
        weight_maps = [restrict_top_n(rm, config.rm3_n).term_probs for rm in models]
        for m_runs, run in zip(runs, rerank_many(base, weight_maps, cfg, index)):
            m_runs.append(run)
    mean_aps = {m: _mean_ap(m_runs, qrels, config.k) for m, m_runs in zip(ms, runs)}
    return _best_on_grid(ms, mean_aps.__getitem__)
