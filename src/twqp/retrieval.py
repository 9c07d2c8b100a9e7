"""Dirichlet-smoothed query-likelihood scoring and top-k retrieval.

Scores live in log space.  A query is a non-empty bag of analyzed terms: a
duplicated term contributes one log factor per occurrence.  Summation runs
over the distinct terms in sorted order (count times the log probability),
which fixes a canonical floating-point evaluation order; the re-ranking
module uses the same order so that weighted sums that should equal a
query-likelihood score do so bit-for-bit.

Every score comes from one kernel, ``log_prob_matrix`` and ``weighted_sum``.
``log_prob_matrix`` reads tfs off the index's postings arrays by doc number
(``gather_tf``) and takes their logs.  It gives the same floats as the
tests' one-document oracle: the same association order for p, the C
library's log, which ``math.log`` calls (not ``np.log``, which differs in
the last ulp on some inputs), for every log, and one term at a time
accumulation.
A ``LogProbMemo`` answers ``log_prob_matrix`` calls at its own mu over its
own index from one full-width row per term, for callers that score the
same terms many times.  A call builds the rows of all the terms it lacks
together, in two log steps: one for the tf-0 cells, which depend only on
a term's collection frequency and the document's length and so are
shared by terms of equal frequency, and one for the terms' postings.  An
experiment's stages at the tuned mu share one memo, and each takes it in
place of mu and the index.  ``retrieve_topk`` alone takes a memo
optionally, since a plain search scores its candidates once; given one,
it checks that the memo holds its mu and index.
``rank_grid`` scores one query at every mu of a grid in one pass: it
gathers the candidates and tfs once, takes every mu's logs in one log
step and ranks every mu's candidates with one lexsort, into (mu, rank)
arrays, row i equal to ``retrieve_topk``'s arrays at the i-th mu.  Every
ranking, of a search, a grid or a re-ranked head, is ``rank_by_score``'s:
by descending score, then ascending document number.  One rule,
``_check_mu``, admits a mu: >= 0 and finite.

The candidates of a search are ``Index.matching_docs``: a one-term bag's
are its postings' doc numbers, as they stand.  ``gather_tf`` copies a
term's tfs as they stand when the documents are exactly its postings, and
finds each document in the postings by binary search otherwise.  The log
step, ``_log_probs``, which the kernel, the grid and the memo all call,
takes every cell's log in one call over the array
(``scipy.special.xlogy(1.0, p)``).

Every sum of Python floats in the package is ``add_up``'s, in order from
0.0 on every interpreter; builtin ``sum`` compensates from CPython 3.12 on.

A ranked list holds read-only document-number and score arrays over a
doc-id table; its (doc_id, score) entries are built each time they are read.
``RankedList.hits`` marks the ranks at which given doc ids stand by
numbers alone, without building the ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .index import Index, collection_prob


@dataclass(frozen=True)
class Query:
    """Bag of analyzed terms with an identifier; terms keep multiplicity.

    bag, the distinct terms in sorted order and the count of each, is
    built once, when the query is made; it takes no part in equality,
    hashing or repr, since the terms fix it.  A query with no terms is an
    error: nothing could score it.
    """

    query_id: str
    terms: tuple[str, ...]
    bag: tuple[tuple[str, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError(f"cannot score the empty query {self.query_id!r}")
        object.__setattr__(self, "terms", terms)
        distinct = tuple(sorted(set(terms)))
        if len(distinct) == len(terms):
            counts = (1,) * len(terms)
        else:
            counts = tuple(map(terms.count, distinct))
        object.__setattr__(self, "bag", (distinct, counts))


class RankedList:
    """Scored documents for one query, sorted by (score desc, doc_id asc).

    A list holds read-only document-number and score arrays, the doc-id
    table the numbers index into and the map from each id to its number:
    its index's doc_ids and numbers for a list from retrieval or re-ranking
    (from_arrays), its own distinct ids, numbered in order of first
    appearance, for RankedList(query_id, entries) built from (doc_id,
    score) pairs.  entries is built on each read.  Lists are equal when
    their query ids and entries are.
    """

    __slots__ = ("query_id", "_nums", "_scores", "_ids", "_numbers")

    def __init__(self, query_id: str, entries: Iterable[tuple[str, float]]) -> None:
        pairs = tuple(entries)
        numbers: dict[str, int] = {}
        numbered = (numbers.setdefault(d, len(numbers)) for d, _ in pairs)
        nums = np.fromiter(numbered, dtype=np.int64, count=len(pairs))
        scores = np.array([s for _, s in pairs], dtype=float)
        self._hold(query_id, nums, scores, list(numbers), numbers)

    @classmethod
    def from_arrays(
        cls, query_id: str, nums: np.ndarray, scores: np.ndarray, index: Index
    ) -> "RankedList":
        """The documents numbered nums in index, in that order, scoring scores.

        The arrays are made read-only: lists built from one share them."""
        lst = cls.__new__(cls)
        lst._hold(query_id, nums, scores, index.doc_ids, index._numbers)
        return lst

    def _hold(
        self,
        query_id: str,
        nums: np.ndarray,
        scores: np.ndarray,
        ids: list[str],
        numbers: dict[str, int],
    ) -> None:
        nums.flags.writeable = scores.flags.writeable = False
        self.query_id, self._nums, self._scores = query_id, nums, scores
        self._ids, self._numbers = ids, numbers

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.doc_ids, self.scores))

    def __len__(self) -> int:
        return self._nums.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.query_id, self.entries) == (other.query_id, other.entries)

    def __hash__(self) -> int:
        return hash((self.query_id, self.entries))

    def __repr__(self) -> str:
        return f"RankedList(query_id={self.query_id!r}, entries={self.entries!r})"

    @property
    def doc_ids(self) -> list[str]:
        return list(map(self._ids.__getitem__, self._nums.tolist()))

    @property
    def scores(self) -> list[float]:
        return self._scores.tolist()

    def doc_numbers(self, index: Index) -> np.ndarray:
        """The documents' numbers in index, in rank order: the list's own
        array if it numbers into index's doc ids, else looked up by doc id."""
        return self._nums if self._ids is index.doc_ids else index.doc_numbers(self.doc_ids)

    def score_array(self) -> np.ndarray:
        """The scores, in rank order, as a read-only float array."""
        return self._scores

    def hits(self, doc_ids: Iterable[str], depth: int | None = None) -> np.ndarray:
        """A boolean array over the first depth ranks (all, for None), True
        where the document's id is in doc_ids; an id outside the list's
        table matches nothing.  The ids' numbers go into a mask over the
        table, which is read at the list's numbers."""
        numbers = self._numbers
        wanted = np.zeros(len(self._ids), dtype=bool)
        wanted[[numbers[d] for d in doc_ids if d in numbers]] = True
        return wanted[self._nums[:depth]]


def gather_tf(terms: Sequence[str], nums: np.ndarray, index: Index) -> np.ndarray:
    """The tfs of terms (rows) in the documents nums (columns), from the
    postings arrays; none depends on mu."""
    tf = np.zeros((len(terms), len(nums)), dtype=np.int64)
    for row, w in zip(tf, terms):
        post_nums, post_tfs = index.term(w)
        if not post_nums.size:
            continue  # the row stays 0
        if post_nums.size == nums.size and (post_nums == nums).all():
            row[:] = post_tfs  # the candidates are w's own postings
            continue
        # Past the last posting, clip to it; the equality test masks it out.
        pos = np.minimum(post_nums.searchsorted(nums), post_nums.size - 1)
        np.multiply(post_tfs[pos], post_nums[pos] == nums, out=row)
    return tf


def log_prob_matrix(
    terms: Sequence[str], nums: np.ndarray, mu: float, index: Index
) -> np.ndarray:
    """log p_d(w) for each term (row) and each document number (column).

    p_d(w) = (tf(w,d) + mu * p_D(w)) / (|d| + mu), and the log is -inf where
    p is 0.  mu must be finite and >= 0 (_check_mu).
    """
    _check_mu(mu)
    lengths = index.lengths[nums]
    if terms and mu == 0 and not lengths.all():
        empty = index.doc_ids[int(nums[np.argmin(lengths)])]
        raise ValueError(f"doc {empty!r} is empty and mu=0: probability undefined")
    background = np.array([mu * collection_prob(w, index) for w in terms], dtype=float)
    return _log_probs(gather_tf(terms, nums, index), background[:, None], lengths, mu)


def _log_probs(
    tf: np.ndarray | int, background: np.ndarray, lengths: np.ndarray, mu: np.ndarray | float
) -> np.ndarray:
    """log p for p = (tf + background) / (lengths + mu), -inf where p is 0,
    over arrays that broadcast together; background is mu * p_D(w).

    That is the oracle's association, (tf + mu * (cf / T)) / (len + mu);
    another order can round to another float.  xlogy(1.0, p) is 1.0 times
    the C library's log of each cell, the function math.log calls, so each
    log is math.log's float; np.log's own loop differs in the last ulp on
    some inputs.
    """
    # Imported here: index and eval score nothing, and start without scipy.
    from scipy.special import xlogy

    return xlogy(1.0, (tf + background) / (lengths + mu))


def _check_mu(mu: float) -> None:
    """Reject a mu no score is defined at: one below 0 or not finite."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")


def check_positive_mu(mu: float, use: str) -> None:
    """Reject a mu that is not positive and finite; use names the stage
    that needs one."""
    if not 0 < mu < math.inf:
        raise ValueError(f"{use} requires mu > 0 and finite, got {mu}")


class LogProbMemo:
    """log_prob_matrix at one mu over one index, from one row per term.

    A term's row is log_prob_matrix([w], every document number, mu, index),
    built the first time the term is asked for.  A matrix call builds the
    rows of every term it lacks together, in two log steps.  Off a term's
    postings tf is 0, so a cell depends only on the term's collection
    frequency and the document's length: one row of logs over a document of
    each distinct length is built per collection frequency, in one log step
    over the frequencies not seen before, and read at each document's
    length class.  The postings' own cells, those of all the missing terms
    concatenated, take the second log step and are written in at their
    documents.  Each cell is the kernel's float for its term and document,
    so the row, and any gather of its columns, equals log_prob_matrix over
    those columns bit for bit.  mu must be positive: at mu = 0 a full-width
    row is undefined on an empty document that no candidate set holds.
    """

    def __init__(self, mu: float, index: Index) -> None:
        check_positive_mu(mu, "a log-probability memo")
        self.mu = mu
        self.index = index
        # The distinct document lengths, and each document's among them.
        self._lengths, self._length_class = np.unique(index.lengths, return_inverse=True)
        self._off_postings: dict[int, np.ndarray] = {}  # collection tf -> logs per length
        self._rows: dict[str, np.ndarray] = {}

    def matrix(self, terms: Sequence[str], nums: np.ndarray) -> np.ndarray:
        """log_prob_matrix(terms, nums, self.mu, self.index)."""
        rows = self._rows
        if not all(map(rows.__contains__, terms)):
            missing = [w for w in dict.fromkeys(terms) if w not in rows]
            rows.update(zip(missing, self._build_rows(missing)))
        out = np.empty((len(terms), len(nums)))
        for row, w in zip(out, terms):
            rows[w].take(nums, out=row)
        return out

    def _build_rows(self, terms: list[str]) -> np.ndarray:
        """log_prob_matrix(terms, every document number, mu, index) for
        distinct terms."""
        mu, index = self.mu, self.index
        cfs = [index.collection_tf.get(w, 0) for w in terms]
        # an unseen collection tf -> a term holding it
        new = {cf: w for cf, w in zip(cfs, terms) if cf not in self._off_postings}
        if new:
            background = np.array([mu * collection_prob(w, index) for w in new.values()])
            off = _log_probs(0, background[:, None], self._lengths, mu)
            self._off_postings.update(zip(new, off))
        postings = [index.term(w) for w in terms]
        sizes = [nums.size for nums, _ in postings]
        cells = np.concatenate([nums for nums, _ in postings])
        tfs = np.concatenate([tfs for _, tfs in postings])
        background = np.repeat([mu * collection_prob(w, index) for w in terms], sizes)
        logs = _log_probs(tfs, background, index.lengths[cells], mu)
        rows = np.empty((len(terms), self._length_class.size))
        start = 0
        for row, cf, (nums, _), size in zip(rows, cfs, postings, sizes):
            self._off_postings[cf].take(self._length_class, out=row)
            row[nums] = logs[start : start + size]
            start += size
        return rows


def add_up(values: Iterable[float]) -> float:
    """The values added one at a time, in order, starting from 0.0: the
    package's one rule for a sum of Python floats.  Builtin sum adds the
    same way up to CPython 3.11, but from 3.12 on it compensates
    (Neumaier), so its last digits depend on the interpreter."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def weighted_sum(weights: Sequence | np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Sum of weight * row over the rows of log_probs, one row at a time in
    order, as the scalar loop adds one term at a time.

    weights is one weight per row, each row's products formed as it is
    added, or a rows x batch array of them, which gives one sum per batch
    column: a batch x columns array, all its products formed at once.
    Every batch column adds the rows in the same order, so its sum equals
    the sum over its non-zero weights alone, bit for bit, provided every
    row is finite: 0.0 times a finite value is +-0.0, and adding +-0.0
    leaves an accumulator that starts at +0.0 unchanged (a round-to-nearest
    sum that starts at +0.0 is never -0.0).
    """
    if isinstance(weights, np.ndarray) and weights.ndim == 2:
        acc = np.zeros(weights.shape[1:] + log_probs.shape[1:])
        for row in weights[..., None] * log_probs[:, None]:
            acc += row
        return acc
    acc = np.zeros(log_probs.shape[1:])
    for c, row in zip(weights, log_probs):
        acc += float(c) * row
    return acc


def rank_by_score(
    nums: np.ndarray, scores: np.ndarray, top: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending document numbers nums ranked under each row of scores
    (one score per number) by descending score and then ascending number
    (doc id), cut to the first top: (numbers, scores) arrays shaped like
    scores, but for the cut.  A 2-D scores ranks its rows in one lexsort."""
    if scores.ndim == 1:  # a search's one row: the broadcast would cost more than the sort
        order = np.lexsort((nums, -scores))[:top]
        return nums[order], scores[order]
    order = np.lexsort((np.broadcast_to(nums, scores.shape), -scores), axis=-1)[:, :top]
    return nums[order], np.take_along_axis(scores, order, axis=-1)


def _check_depth_and_mu(k: int, mu: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_mu(mu)


def retrieve_topk(
    q: Query, k: int, mu: float, index: Index, memo: LogProbMemo | None = None
) -> RankedList:
    """Top-k documents under query likelihood.

    Candidates are the documents containing at least one query term; ties are
    broken by ascending doc_id.  Fewer than k matches yield a shorter list,
    and no matches yield an empty one.  A memo, when given, must hold mu
    and index and supplies the log probabilities; the list is the same as
    without it.
    """
    _check_depth_and_mu(k, mu)
    terms, counts = q.bag
    nums = index.matching_docs(terms)  # ascending: sorted keys search faster
    if memo is None:
        log_probs = log_prob_matrix(terms, nums, mu, index)
    elif mu != memo.mu or index is not memo.index:
        raise ValueError(
            f"memo holds log probabilities at mu={memo.mu} over one index; asked for mu={mu}"
        )
    else:
        log_probs = memo.matrix(terms, nums)
    ranked = rank_by_score(nums, weighted_sum(counts, log_probs), k)
    return RankedList.from_arrays(q.query_id, *ranked, index)


def rank_grid(
    q: Query, k: int, mus: Sequence[float], index: Index
) -> tuple[np.ndarray, np.ndarray]:
    """(numbers, scores), each a (mu, rank) array: row i holds
    retrieve_topk(q, k, mus[i], index)'s documents and scores, bit for bit.

    The query's candidates, tfs and lengths do not depend on mu, so they
    are gathered once.  p is computed over a (term, mu, document) array in
    the kernel's association, the logs are taken in one log step, the
    terms' rows are added one at a time in sorted-term order into a (mu,
    document) array, and one lexsort ranks every mu's candidates.  k and
    every mu are checked before anything is scored.
    """
    for mu in mus:
        _check_depth_and_mu(k, mu)
    terms, counts = q.bag
    nums = index.matching_docs(terms)
    tf = gather_tf(terms, nums, index)[:, None, :]
    grid = np.array(mus, dtype=float)
    background = np.multiply.outer([collection_prob(w, index) for w in terms], grid)
    log_probs = _log_probs(tf, background[:, :, None], index.lengths[nums], grid[:, None])
    # each term's row is its (mu, document) cells laid end to end
    rows = log_probs.reshape(len(terms), -1)
    scores = weighted_sum(counts, rows).reshape(log_probs.shape[1:])
    return rank_by_score(nums, scores, k)


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
    """Parse a run file back into per-query ranked lists (file order kept);
    a document appears at most once per query."""
    per_query: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                qid, _, doc_id, _, score, _ = line.split()
                value = float(score)
            except ValueError:
                raise ValueError(f"{path}: malformed run line {lineno}") from None
            entries = per_query.setdefault(qid, {})
            if doc_id in entries:
                raise ValueError(
                    f"{path}: duplicate document {doc_id} for query {qid} at line {lineno}"
                )
            entries[doc_id] = value
    return {qid: RankedList(qid, tuple(entries.items())) for qid, entries in per_query.items()}
