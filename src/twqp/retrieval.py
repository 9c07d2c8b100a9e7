"""Dirichlet-smoothed query-likelihood scoring and top-k retrieval.

Scores live in log space.  A query is a bag of analyzed terms: a duplicated
term contributes one log factor per occurrence.  Summation runs over the
distinct terms in sorted order (count times the log probability), which fixes
a canonical floating-point evaluation order; the re-ranking module uses the
same order so that weighted sums that should equal a query-likelihood score
do so bit-for-bit.

Every score comes from one kernel, ``log_prob_matrix`` and ``weighted_sum``,
which reads tfs off the index's postings arrays by doc number
(``gather_tf``) and then takes the logs (``log_probs_from``).  It gives
the same floats as the tests' one-document oracle: the same
association order for p, ``math.log`` (not ``np.log``, which differs in the
last ulp on some inputs) for every log, and one term at a time accumulation.
A ``LogProbMemo`` answers ``log_prob_matrix`` calls at one mu from one
full-width row per term, for callers that score the same terms many times.
``retrieve_grid`` gathers each query's candidates and tfs once and takes
only the log step at each mu of a grid.

A ranked list from retrieval holds document-number and score arrays; its
(doc_id, score) entries are built only when something reads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


class RankedList:
    """Scored documents for one query, sorted by (score desc, doc_id asc).

    RankedList(query_id, entries, k) holds (doc_id, score) pairs, as a run
    file does.  A list from retrieval or re-ranking (from_arrays) holds its
    document numbers and scores as arrays over the index that made it, and
    builds the pairs the first time entries is read.  Lists are equal when
    their query ids, entries and k are.
    """

    __slots__ = ("query_id", "k", "_entries", "_nums", "_scores", "_index")

    def __init__(self, query_id: str, entries: Iterable[tuple[str, float]], k: int) -> None:
        self.query_id = query_id
        self.k = k
        self._entries: tuple[tuple[str, float], ...] | None = tuple(entries)
        self._nums = self._scores = self._index = None

    @classmethod
    def from_arrays(
        cls, query_id: str, nums: np.ndarray, scores: np.ndarray, k: int, index: Index
    ) -> "RankedList":
        """The documents numbered nums in index, in that order, scoring scores.

        The arrays are made read-only: lists built from one share them."""
        nums.flags.writeable = scores.flags.writeable = False
        lst = cls.__new__(cls)
        lst.query_id, lst.k, lst._entries = query_id, k, None
        lst._nums, lst._scores, lst._index = nums, scores, index
        return lst

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        if self._entries is None:
            self._entries = tuple(zip(self.doc_ids, self._scores.tolist()))
        return self._entries

    def __len__(self) -> int:
        return len(self._entries) if self._nums is None else self._nums.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.query_id, self.entries, self.k) == (other.query_id, other.entries, other.k)

    def __hash__(self) -> int:
        return hash((self.query_id, self.entries, self.k))

    def __repr__(self) -> str:
        return f"RankedList(query_id={self.query_id!r}, entries={self.entries!r}, k={self.k!r})"

    @property
    def doc_ids(self) -> list[str]:
        if self._nums is None:
            return [d for d, _ in self._entries]
        return list(map(self._index.doc_ids.__getitem__, self._nums.tolist()))

    @property
    def scores(self) -> list[float]:
        if self._scores is None:
            return [s for _, s in self._entries]
        return self._scores.tolist()

    def doc_numbers(self, index: Index) -> np.ndarray:
        """The documents' numbers in index, in rank order: the list's own
        array if index made it, else looked up by doc id."""
        return self._nums if index is self._index else index.doc_numbers(self.doc_ids)

    def score_array(self) -> np.ndarray:
        """The scores, in rank order, as a float array."""
        return np.array(self.scores, dtype=float) if self._scores is None else self._scores


@dataclass(frozen=True)
class TfGather:
    """What log_prob_matrix reads off the index for terms over document
    numbers nums, none of which depends on mu: one row of tfs per term, and
    the documents' lengths."""

    terms: tuple[str, ...]
    nums: np.ndarray
    tf: np.ndarray
    lengths: np.ndarray


def gather_tf(terms: Sequence[str], nums: np.ndarray, index: Index) -> TfGather:
    """The tfs of terms in the documents nums, from the postings arrays."""
    tf = np.zeros((len(terms), len(nums)), dtype=np.int64)
    for row, w in zip(tf, terms):
        post_nums, post_tfs = index.term(w)
        if not post_nums.size:
            continue  # the row stays 0
        # Past the last posting, clip to it; the equality test masks it out.
        pos = np.minimum(post_nums.searchsorted(nums), post_nums.size - 1)
        np.multiply(post_tfs[pos], post_nums[pos] == nums, out=row)
    return TfGather(tuple(terms), nums, tf, index.lengths[nums])


def log_probs_from(gathered: TfGather, mu: float, index: Index) -> np.ndarray:
    """log p_d(w) for each term (row) and document (column) of a gather.

    p_d(w) = (tf(w,d) + mu * p_D(w)) / (|d| + mu), and the log is -inf where
    p is 0.  mu must be finite and >= 0.  math.log runs once per distinct
    probability: p repeats across documents with equal tf and length.
    """
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")
    terms, lengths = gathered.terms, gathered.lengths
    if terms and mu == 0 and not lengths.all():
        empty = index.doc_ids[int(gathered.nums[np.argmin(lengths)])]
        raise ValueError(f"doc {empty!r} is empty and mu=0: probability undefined")
    background = np.array([mu * collection_prob(w, index) for w in terms], dtype=float)
    # The oracle's association, (tf + mu * (cf / T)) / (len + mu); another
    # order can round to another float.
    p = (gathered.tf + background[:, None]) / (lengths + mu)
    values, inverse = np.unique(p.ravel(), return_inverse=True)
    logs = [math.log(v) if v != 0.0 else -math.inf for v in values.tolist()]
    return np.array(logs, dtype=float)[inverse].reshape(p.shape)


def log_prob_matrix(
    terms: Sequence[str], nums: np.ndarray, mu: float, index: Index
) -> np.ndarray:
    """log p_d(w) for each term (row) and each document number (column):
    log_probs_from a gather_tf."""
    return log_probs_from(gather_tf(terms, nums, index), mu, index)


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


def ranked_list(
    query_id: str,
    nums: np.ndarray,
    scores: np.ndarray,
    k: int,
    index: Index,
    top: int | None = None,
    tail: tuple[np.ndarray, np.ndarray] | None = None,
) -> RankedList:
    """The documents nums of index, scoring scores, by descending score and
    then ascending number (doc id), cut to the first top and followed by
    tail, a (nums, scores) pair kept in its own order."""
    order = np.lexsort((nums, -scores))[:top]
    nums, scores = nums[order], scores[order]
    if tail is not None:
        nums, scores = np.concatenate((nums, tail[0])), np.concatenate((scores, tail[1]))
    return RankedList.from_arrays(query_id, nums, scores, k, index)


def _check_depth_and_mu(k: int, mu: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")


def _bag(q: Query) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The query's distinct terms, sorted, and the count of each."""
    if not q.terms:
        raise ValueError("cannot retrieve with an empty query")
    terms, counts = zip(*sorted(q.term_counts().items()))
    return terms, counts


def retrieve_topk(
    q: Query, k: int, mu: float, index: Index, memo: LogProbMemo | None = None
) -> RankedList:
    """Top-k documents under query likelihood.

    Candidates are the documents containing at least one query term; ties are
    broken by ascending doc_id.  Fewer than k matches yield a shorter list,
    and no matches yield an empty one.  A memo at mu, when given, supplies
    the log probabilities; the list is the same as without it.
    """
    _check_depth_and_mu(k, mu)
    terms, counts = _bag(q)
    nums = index.matching_docs(terms)  # ascending: sorted keys search faster
    if not nums.size:
        return RankedList(q.query_id, (), k)
    matrix = log_prob_matrix if memo is None else memo.matrix
    scores = weighted_sum(counts, matrix(terms, nums, mu, index))
    return ranked_list(q.query_id, nums, scores, k, index, top=k)


def retrieve_grid(
    queries: Sequence[Query], k: int, mus: Iterable[float], index: Index
) -> Iterator[tuple[float, list[RankedList]]]:
    """(mu, [retrieve_topk(q, k, mu, index) for q in queries]) for each mu
    of mus, in order, bit for bit.

    Each query's candidates, tfs and lengths do not depend on mu, so they
    are gathered once, before the first mu; each mu then runs only the log
    step.  The lists of one mu are made when the generator reaches it.
    """
    gathered = []
    for q in queries:
        terms, counts = _bag(q)
        gathered.append((q.query_id, counts, gather_tf(terms, index.matching_docs(terms), index)))
    for mu in mus:
        lists = []
        for query_id, counts, tfs in gathered:
            _check_depth_and_mu(k, mu)
            if not tfs.nums.size:
                lists.append(RankedList(query_id, (), k))
                continue
            scores = weighted_sum(counts, log_probs_from(tfs, mu, index))
            lists.append(ranked_list(query_id, tfs.nums, scores, k, index, top=k))
        yield mu, lists


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
        for rank, (doc_id, score) in enumerate(zip(rl.doc_ids, rl.scores), start=1):
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
