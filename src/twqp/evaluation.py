"""Effectiveness measures, significance testing, and parameter sweeps.

Measures follow the usual TREC conventions: precision at a fixed cutoff
divides by the cutoff even for short runs, average precision divides by the
number of judged-relevant documents, reciprocal rank reads the full list.
Queries with no relevant documents cannot be scored by AP/RR and are
excluded from aggregation (callers flag them).

All three measures read where the relevant documents stand off
RankedList.hits: the relevant ids are numbered in the list's own id table
and marked in a mask, which is read at the list's document numbers, so no
doc id of the list is built; build_report reads each run's hits once and
takes all three measures from them.  Tuning judges each query's whole
grid at once: its relevant documents are marked in one mask over the
index's document numbers, which is read at the (grid value, rank) array
of every mu's or depth's document numbers; no ranked list is built.
Each measure has one rule, which takes every row of a hit matrix at once:
precisions, average_precisions and reciprocal_ranks.  AP adds hits / rank
one rank at a time, in rank order, from 0.0, and divides by R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .config import ExperimentConfig
from .index import Index
from .relevance import RM3Table, rm3_table
from .rerank import rerank_table
from .retrieval import LogProbMemo, Query, RankedList, add_up, rank_grid


class Qrels:
    """Relevance judgments; grade >= 1 counts as relevant."""

    def __init__(self, judgments: dict[str, dict[str, int]]):
        self.judgments = judgments
        self._relevant = {
            q: frozenset(d for d, g in grades.items() if g >= 1) for q, grades in judgments.items()
        }

    def relevant_docs(self, query_id: str) -> frozenset[str]:
        """The query's relevant doc ids, built once; empty if unjudged."""
        return self._relevant.get(query_id, frozenset())

    def relevant_count(self, query_id: str) -> int:
        return len(self.relevant_docs(query_id))


def load_qrels(path: str | Path) -> Qrels:
    """TREC qrels: `query_id 0 doc_id grade`, whitespace-separated."""
    judgments: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                qid, _, doc_id, grade = line.split()
                value = int(grade)
            except ValueError:
                raise ValueError(f"{path}: malformed qrels line {lineno}") from None
            judgments.setdefault(qid, {})
            if doc_id in judgments[qid]:
                raise ValueError(
                    f"{path}: duplicate judgment for ({qid}, {doc_id}) at line {lineno}"
                )
            judgments[qid][doc_id] = value
    return Qrels(judgments)


def load_topics(path: str | Path) -> list[tuple[str, str]]:
    """Tab-separated `query_id<TAB>title` lines; a query id appears once."""
    topics: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: malformed topic line {lineno} (no tab)")
            qid, title = line.split("\t", 1)
            if qid.split() != [qid]:
                raise ValueError(
                    f"{path}: query id {qid!r} is empty or holds whitespace at line {lineno}"
                )
            if qid in topics:
                raise ValueError(f"{path}: duplicate topic {qid} at line {lineno}")
            topics[qid] = title
    return list(topics.items())


# ---------------------------------------------------------------------------
# Per-query measures
# ---------------------------------------------------------------------------


def precision_at(run: RankedList, qrels: Qrels, cutoff: int = 10) -> float:
    """Relevant fraction of the top-cutoff; denominator is always cutoff."""
    return float(precisions(run.hits(qrels.relevant_docs(run.query_id), cutoff), cutoff))


def precisions(hits: np.ndarray, cutoff: int) -> np.ndarray:
    """precision_at of each list in hits, a boolean array whose last axis
    runs over a list's ranks, True where a relevant document stands: its
    hits among the first cutoff ranks, over cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return np.count_nonzero(hits[..., :cutoff], axis=-1) / cutoff


def average_precision(run: RankedList, qrels: Qrels, depth: int = 1000) -> float:
    """Mean of precision at each relevant retrieved rank, over R."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    relevant = qrels.relevant_docs(run.query_id)
    if not relevant:
        raise ValueError(f"query {run.query_id!r} has no relevant documents")
    return float(average_precisions(run.hits(relevant, depth), len(relevant)))


def average_precisions(hits: np.ndarray, relevant_count: int) -> np.ndarray:
    """The AP of each list in hits, a boolean array whose last axis runs
    over a list's ranks, True where a relevant document stands: hits / rank
    at each such rank, added from 0.0 one rank at a time in rank order,
    over R.

    Each list's terms go into one row of a (list, hit) table, padded with
    +0.0, which changes no sum, and a sequential np.cumsum adds each row.
    So a list's AP equals add_up over its hit ranks, bit for bit."""
    lists = hits.reshape(math.prod(hits.shape[:-1]), hits.shape[-1])
    rows, ranks = lists.nonzero()
    # each hit's count of hits up to and including it in its list
    nth = np.arange(1, rows.size + 1) - rows.searchsorted(rows)
    terms = np.zeros((len(lists), nth.max(initial=0) + 1))
    terms[rows, nth] = nth / (ranks + 1)
    return (np.cumsum(terms, axis=1)[:, -1] / relevant_count).reshape(hits.shape[:-1])


def reciprocal_rank(run: RankedList, qrels: Qrels) -> float:
    """1 / rank of the first relevant document; 0 when none is retrieved."""
    return float(reciprocal_ranks(run.hits(qrels.relevant_docs(run.query_id))))


def reciprocal_ranks(hits: np.ndarray) -> np.ndarray:
    """reciprocal_rank of each list in hits (as in precisions): 1 over the
    rank of its first hit, or over inf, giving 0.0, when it has none."""
    ranks = np.arange(1, hits.shape[-1] + 1)
    return 1.0 / np.where(hits, ranks, np.inf).min(axis=-1, initial=np.inf)


def robustness_index(
    method_values: Sequence[float], baseline_values: Sequence[float]
) -> float:
    """(N+ - N-) / N over paired per-query values; ties count in neither."""
    if len(method_values) != len(baseline_values):
        raise ValueError("paired value vectors differ in length")
    if not method_values:
        raise ValueError("empty query set")
    signs = [(a > b) - (a < b) for a, b in zip(method_values, baseline_values)]
    return (signs.count(1) - signs.count(-1)) / len(signs)


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
    # Imported here: index and eval never run a t-test, and load no scipy.
    from scipy.special import stdtr

    return 2.0 * float(stdtr(n - 1, -abs(t)))


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

    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    per_query: dict[str, dict[str, QueryMeasures]] = {method: {} for method in methods}
    for qid in query_ids:
        # precision_at, average_precision and reciprocal_rank of every
        # method, from one read of each run's relevant ranks: a (method,
        # rank) hit matrix, padded with misses to the longest run
        relevant = qrels.relevant_docs(qid)
        rows = [runs[method][qid].hits(relevant) for method in methods]
        hits = np.zeros((len(rows), max(row.size for row in rows)), dtype=bool)
        for padded, row in zip(hits, rows):
            padded[: row.size] = row
        p10 = precisions(hits, 10).tolist()
        aps = average_precisions(hits[:, :depth], len(relevant)).tolist() if relevant else None
        rrs = reciprocal_ranks(hits).tolist()
        for i, method in enumerate(methods):
            per_query[method][qid] = QueryMeasures(
                p10=p10[i],
                ap=aps[i] if relevant else None,
                rr=rrs[i] if relevant else None,
            )

    def vector(method: str, measure: str) -> list[float]:
        if measure == "p10":
            return [per_query[method][q].p10 for q in query_ids]
        return [getattr(per_query[method][q], measure) for q in eligible]

    aggregates = {
        method: {
            measure: add_up(vector(method, measure)) / len(vector(method, measure))
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
# Parameter sweeps
# ---------------------------------------------------------------------------

T = TypeVar("T", float, int)


def _best(grid: Sequence[T], rows: Sequence[list[float]]) -> T:
    """The value of an ascending grid whose row of APs has the highest
    mean.  A row holds one AP per scorable query, in query order, and is
    added in that order; a tie goes to the smaller value, as max keeps the
    first."""
    if not rows[0]:
        raise ValueError("no scorable queries (every query has zero relevant docs)")
    means = [add_up(row) / len(row) for row in rows]
    return max(zip(grid, means), key=lambda pair: pair[1])[0]


def _judge(query_id: str, qrels: Qrels, index: Index) -> tuple[np.ndarray, int]:
    """(mask over the index's document numbers marking the query's
    relevant documents, R): built once per query and read at the (grid
    value, rank) document numbers of all its lists at once, which gives
    their hit matrix.  A relevant id outside the index marks nothing but
    counts in R."""
    relevant, numbers = qrels.relevant_docs(query_id), index._numbers
    mask = np.zeros(index.doc_count, dtype=bool)
    mask[[numbers[d] for d in relevant if d in numbers]] = True
    return mask, len(relevant)


def tune_mu(
    queries: Sequence[Query], qrels: Qrels, config: ExperimentConfig, index: Index
) -> float:
    """Smoothing mass in config.mu_grid maximizing mean AP of the depth-k runs.

    Queries with no relevant document are skipped before they are
    retrieved.  Each other query is ranked at every mu of the grid in one
    pass (rank_grid), which gives a (mu, rank) array of document numbers;
    its _judge mask, read at that array, gives the hit matrix, and
    average_precisions reads every mu's AP off it.  No ranked list is
    built.  Each AP is appended to its mu's APs in query order.
    """
    if not config.mu_grid:
        raise ValueError("empty mu grid")
    k, mus = config.k, sorted(config.mu_grid)
    aps: list[list[float]] = [[] for _ in mus]
    for q in queries:
        if qrels.relevant_count(q.query_id) == 0:
            continue
        mask, relevant_count = _judge(q.query_id, qrels, index)
        nums, _ = rank_grid(q, k, mus, index)
        for mu_aps, ap in zip(aps, average_precisions(mask[nums], relevant_count).tolist()):
            mu_aps.append(ap)
    return _best(mus, aps)


def tune_rm3_m(
    lists: Sequence[tuple[Query, RankedList]],
    qrels: Qrels,
    config: ExperimentConfig,
    memo: LogProbMemo,
) -> tuple[int, list[dict[str, float] | None]]:
    """(feedback depth m in config.rm3_m_grid maximizing mean AP of the
    re-ranked runs, each list's RM3 model at that m).

    lists pairs each query with its depth-k retrieval at the memo's mu, the
    already-tuned retrieval smoothing.  Queries with an empty list or with
    no relevant document are skipped before their models are built, and
    their model is None.  The relevance model is the one the experiment
    weighs with: document weights at config.rm3_mu, interpolation
    config.rm3_lambda, clipped to its top config.rm3_n terms.  An m past a
    list's length feeds back the whole list, so per query each distinct
    clamped depth min(m, len) is modelled and scored once, and every m
    reads its depth's AP.

    Per query, rm3_table builds every depth's model as one depth x term
    table, and one rerank_table call re-ranks the head under every depth's
    model at once, from the memo's log probabilities.  The query's _judge
    mask, read at the (depth, rank) document numbers, gives the hit matrix
    that average_precisions reads every depth's AP off.  Each judged
    query's table is kept until m is picked; then its model at min(m, len)
    is read off it (RM3Table.model) as build_rm3's term -> probability
    dict, its terms in rank order.
    """
    if not config.rm3_m_grid:
        raise ValueError("empty m grid")
    ms = sorted(config.rm3_m_grid)
    index = memo.index
    aps: list[list[float]] = [[] for _ in ms]
    tables: list[tuple[list[int], RM3Table] | None] = []  # per list: (its depths, their table)
    for q, base in lists:
        if not base or qrels.relevant_count(base.query_id) == 0:
            tables.append(None)
            continue
        depths = sorted({min(m, len(base)) for m in ms})
        table = rm3_table(q, base, depths, config.rm3_mu, config.rm3_lambda, index, config.rm3_n)
        nums, _ = rerank_table(base, table.terms, table.probs.T, config, memo)
        mask, relevant_count = _judge(base.query_id, qrels, index)
        hits = mask[nums[:, : config.k]]
        by_depth = dict(zip(depths, average_precisions(hits, relevant_count).tolist()))
        for m, m_aps in zip(ms, aps):
            m_aps.append(by_depth[min(m, len(base))])
        tables.append((depths, table))
    best = _best(ms, aps)
    return best, [
        None if kept is None else kept[1].model(kept[0].index(min(best, len(base))))
        for (_, base), kept in zip(lists, tables)
    ]
