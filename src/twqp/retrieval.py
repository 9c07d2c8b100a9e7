"""Dirichlet-smoothed query-likelihood scoring and top-k retrieval.

Scores live in log space.  A query is a bag of analyzed terms: a duplicated
term contributes one log factor per occurrence.  Summation runs over the
distinct terms in sorted order (count times the log probability), which fixes
a canonical floating-point evaluation order; the re-ranking module uses the
same order so that weighted sums that should equal a query-likelihood score
do so bit-for-bit.

Every score comes from one kernel, ``log_prob_matrix`` and ``weighted_sum``,
which reads tfs off the index's postings arrays by doc number.  It gives
the same floats as the tests' one-document oracle: the same
association order for p, ``math.log`` (not ``np.log``, which differs in the
last ulp on some inputs) for every log, and one term at a time accumulation.
A ``LogProbMemo`` answers ``log_prob_matrix`` calls at one mu from one
full-width row per term, for callers that score the same terms many times.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .index import Index, collection_prob


@dataclass(frozen=True)
class Query:
    """Bag of analyzed terms with an identifier; terms keep multiplicity."""

    query_id: str
    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def term_counts(self) -> Counter[str]:
        return Counter(self.terms)


@dataclass(frozen=True)
class RankedList:
    """Scored documents for one query, sorted by (score desc, doc_id asc)."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]

    @property
    def scores(self) -> list[float]:
        return [s for _, s in self.entries]


def log_prob_matrix(
    terms: Sequence[str], nums: np.ndarray, mu: float, index: Index
) -> np.ndarray:
    """log p_d(w) for each term (row) and each document number (column).

    p_d(w) = (tf(w,d) + mu * p_D(w)) / (|d| + mu), and the log is -inf where
    p is 0.  mu must be finite and >= 0.  math.log runs once per distinct
    probability: p repeats across documents with equal tf and length.
    """
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")
    lengths = index.lengths[nums]
    if terms and mu == 0 and not lengths.all():
        empty = index.doc_ids[int(nums[np.argmin(lengths)])]
        raise ValueError(f"doc {empty!r} is empty and mu=0: probability undefined")
    tf = np.zeros((len(terms), len(nums)), dtype=np.int64)
    for row, w in zip(tf, terms):
        post_nums, post_tfs = index.term(w)
        if not post_nums.size:
            continue  # the row stays 0
        # Past the last posting, clip to it; the equality test masks it out.
        pos = np.minimum(post_nums.searchsorted(nums), post_nums.size - 1)
        np.multiply(post_tfs[pos], post_nums[pos] == nums, out=row)
    background = np.array([mu * collection_prob(w, index) for w in terms], dtype=float)
    # The oracle's association, (tf + mu * (cf / T)) / (len + mu); another
    # order can round to another float.
    p = (tf + background[:, None]) / (lengths + mu)
    values, inverse = np.unique(p.ravel(), return_inverse=True)
    logs = [math.log(v) if v != 0.0 else -math.inf for v in values.tolist()]
    return np.array(logs, dtype=float)[inverse].reshape(p.shape)


class LogProbMemo:
    """log_prob_matrix at one mu over one index, from one row per term.

    A term's row is log_prob_matrix([w], every document number, mu, index),
    built the first time the term is asked for.  Each cell depends only on
    its term and document, so a gather of the row's columns equals
    log_prob_matrix over those columns bit for bit.  mu must be positive:
    at mu = 0 a full-width row would raise on an empty document that no
    candidate set holds.
    """

    def __init__(self, mu: float, index: Index) -> None:
        if not 0 < mu < math.inf:
            raise ValueError(f"a log-probability memo requires mu > 0 and finite, got {mu}")
        self.mu = mu
        self.index = index
        self._all = np.arange(index.doc_count)
        self._rows: dict[str, np.ndarray] = {}

    def matrix(
        self, terms: Sequence[str], nums: np.ndarray, mu: float, index: Index
    ) -> np.ndarray:
        """log_prob_matrix(terms, nums, mu, index); mu and index must be the
        memo's own."""
        if mu != self.mu or index is not self.index:
            raise ValueError(
                f"memo holds log probabilities at mu={self.mu} over one index; asked for mu={mu}"
            )
        out = np.empty((len(terms), len(nums)))
        for row, w in zip(out, terms):
            full = self._rows.get(w)
            if full is None:
                full = self._rows[w] = log_prob_matrix([w], self._all, mu, index)[0]
            full.take(nums, out=row)
        return out


def weighted_sum(weights: Sequence[float], log_probs: np.ndarray) -> np.ndarray:
    """Sum of weight * row over the rows of log_probs, one row at a time in
    order, as the scalar loop adds one term at a time."""
    acc = np.zeros(log_probs.shape[1])
    for row in np.asarray(weights, dtype=float)[:, None] * log_probs:
        acc += row
    return acc


def rank_entries(
    nums: np.ndarray, scores: np.ndarray, index: Index, k: int | None = None
) -> tuple[tuple[str, float], ...]:
    """The top k (doc_id, score) entries, by descending score and then by
    ascending doc id (document number order), as Python str and float."""
    top = np.lexsort((nums, -scores))[:k]
    doc_ids = map(index.doc_ids.__getitem__, nums[top].tolist())
    return tuple(zip(doc_ids, scores[top].tolist()))


def retrieve_topk(
    q: Query, k: int, mu: float, index: Index, memo: LogProbMemo | None = None
) -> RankedList:
    """Top-k documents under query likelihood.

    Candidates are the documents containing at least one query term; ties are
    broken by ascending doc_id.  Fewer than k matches yield a shorter list,
    and no matches yield an empty one.  A memo at mu, when given, supplies
    the log probabilities; the list is the same as without it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")
    if not q.terms:
        raise ValueError("cannot retrieve with an empty query")
    nums = index.matching_docs(q.terms)  # ascending: sorted keys search faster
    if not nums.size:
        return RankedList(q.query_id, (), k)
    terms, counts = zip(*sorted(q.term_counts().items()))
    log_probs = log_prob_matrix if memo is None else memo.matrix
    scores = weighted_sum(counts, log_probs(terms, nums, mu, index))
    return RankedList(q.query_id, rank_entries(nums, scores, index, k), k)


def expand_query(q: Query, w: str) -> Query:
    """Bag union with one extra disjunctive term; duplicates are kept."""
    if not w:
        raise ValueError("expansion term must be non-empty")
    return Query(q.query_id, q.terms + (w,))


# ---------------------------------------------------------------------------
# TREC run format: `query_id Q0 doc_id rank score tag`, rank from 1,
# scores printed with 6 decimal places.
# ---------------------------------------------------------------------------


def format_run(lists: Iterable[RankedList], tag: str) -> str:
    lines = []
    for rl in lists:
        for rank, (doc_id, score) in enumerate(rl.entries, start=1):
            lines.append(f"{rl.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_run(lists: Iterable[RankedList], path: str | Path, tag: str) -> None:
    Path(path).write_text(format_run(lists, tag), encoding="utf-8")


def read_run(path: str | Path) -> dict[str, RankedList]:
    """Parse a run file back into per-query ranked lists (file order kept)."""
    per_query: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"{path}: malformed run line {lineno}")
            qid, _, doc_id, _, score, _ = parts
            per_query.setdefault(qid, []).append((doc_id, float(score)))
    return {
        qid: RankedList(qid, tuple(entries), len(entries))
        for qid, entries in per_query.items()
    }
